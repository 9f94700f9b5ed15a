// Package typeerr does not type-check: Load must refuse it rather than hand
// the analyzers partial type information.
package typeerr

func broken() int { return undefinedSymbol }
