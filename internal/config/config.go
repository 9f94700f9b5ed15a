// Package config parses QUEST-style simulation input files: one
// "key = value" pair per line, '#' comments, blank lines ignored. Keys are
// case-insensitive. The package reports every malformed line and every
// type error rather than stopping at the first.
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// File is a parsed input file.
type File struct {
	values map[string]string
	used   map[string]bool
	errs   []error
}

// Parse reads key = value pairs from r.
func Parse(r io.Reader) (*File, error) {
	f := &File{values: map[string]string{}, used: map[string]bool{}}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("config: line %d: expected key = value, got %q", lineNo, line)
		}
		key := strings.ToLower(strings.TrimSpace(line[:eq]))
		val := strings.TrimSpace(line[eq+1:])
		if key == "" {
			return nil, fmt.Errorf("config: line %d: empty key", lineNo)
		}
		if _, dup := f.values[key]; dup {
			return nil, fmt.Errorf("config: line %d: duplicate key %q", lineNo, key)
		}
		f.values[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// Load parses the file at path.
func Load(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return Parse(fh)
}

func (f *File) lookup(key string) (string, bool) {
	k := strings.ToLower(key)
	v, ok := f.values[k]
	if ok {
		f.used[k] = true
	}
	return v, ok
}

// Int returns the integer value of key, or def when absent.
func (f *File) Int(key string, def int) int {
	v, ok := f.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		f.errs = append(f.errs, fmt.Errorf("config: key %q: %q is not an integer", key, v))
		return def
	}
	return n
}

// Float returns the float value of key, or def when absent.
func (f *File) Float(key string, def float64) float64 {
	v, ok := f.lookup(key)
	if !ok {
		return def
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		f.errs = append(f.errs, fmt.Errorf("config: key %q: %q is not a number", key, v))
		return def
	}
	return x
}

// Bool returns the boolean value of key (true/false/1/0/yes/no), or def.
func (f *File) Bool(key string, def bool) bool {
	v, ok := f.lookup(key)
	if !ok {
		return def
	}
	switch strings.ToLower(v) {
	case "true", "1", "yes", "on":
		return true
	case "false", "0", "no", "off":
		return false
	}
	f.errs = append(f.errs, fmt.Errorf("config: key %q: %q is not a boolean", key, v))
	return def
}

// String returns the raw value of key, or def.
func (f *File) String(key, def string) string {
	v, ok := f.lookup(key)
	if !ok {
		return def
	}
	return v
}

// Uint64 returns the unsigned value of key (RNG seeds), or def.
func (f *File) Uint64(key string, def uint64) uint64 {
	v, ok := f.lookup(key)
	if !ok {
		return def
	}
	x, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		f.errs = append(f.errs, fmt.Errorf("config: key %q: %q is not an unsigned integer", key, v))
		return def
	}
	return x
}

// Err returns the accumulated type errors plus an error for every key that
// was never read (catching typos like "bta = 8"), or nil.
func (f *File) Err() error {
	errs := append([]error(nil), f.errs...)
	var unknown []string
	for k := range f.values {
		if !f.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		errs = append(errs, fmt.Errorf("config: unknown keys: %s", strings.Join(unknown, ", ")))
	}
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, len(errs))
	for i, e := range errs {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("%s", strings.Join(msgs, "; "))
}
