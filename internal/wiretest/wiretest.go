// Package wiretest locks versioned wire documents against a golden
// manifest kept beside the package that owns them. It is test support:
// import it from _test.go files only.
//
// A manifest lists every root struct and its same-package struct closure —
// field name, type and tag in declaration order — under the value of the
// governing schema-version constant. A changed struct under an unchanged
// version fails ("bump"); a bumped version with a stale manifest fails
// ("regenerate"): WIRELOCK_REGEN=1 go test -run TestWireLocked ./internal/...
// rewrites the manifests, refusing a changed struct whose version stayed.
package wiretest

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
)

// Root is one locked document: a value of its struct type, and the name and
// value of the schema-version constant whose bump authorizes changing it.
type Root struct {
	Doc          any
	VersionConst string
	Version      string
}

// Check compares the manifest at path with the live surface of roots; with
// WIRELOCK_REGEN set it rewrites the manifest instead. In both modes only a
// version bump authorizes a changed struct.
func Check(path string, roots ...Root) error {
	regen := os.Getenv("WIRELOCK_REGEN") != ""
	text, governs := render(roots)
	old, err := os.ReadFile(path)
	switch {
	case err != nil && !regen:
		return fmt.Errorf("wire manifest %s is missing (%v); generate it with WIRELOCK_REGEN=1", path, err)
	case err == nil && string(old) == text:
		return nil
	case err == nil:
		locked, live := parse(string(old)), parse(text)
		for _, name := range append(live.structs, locked.structs...) {
			if locked.fields[name] == live.fields[name] {
				continue
			}
			// The manifest does not say which constant governed a struct
			// that is gone, so a bump of any of its constants authorizes it.
			vcs := []string{governs[name]}
			if governs[name] == "" {
				vcs = vcs[:0]
				for _, r := range roots {
					if !slices.Contains(vcs, r.VersionConst) {
						vcs = append(vcs, r.VersionConst)
					}
				}
			}
			if !slices.ContainsFunc(vcs, func(vc string) bool { return locked.version[vc] != live.version[vc] }) {
				vc := strings.Join(vcs, " or ")
				return fmt.Errorf("%s: wire struct %s diverges from its locked manifest but %s is still %s; bump %s (minor: additive, major: rename/retype/removal), then regenerate with WIRELOCK_REGEN=1\nlocked:\n%ssource:\n%s",
					path, name, vc, live.version[vcs[0]], vc, locked.fields[name], live.fields[name])
			}
		}
		if !regen {
			return fmt.Errorf("%s (wire struct %s and its closure) is stale: it locks %v, the source has %v; regenerate it with WIRELOCK_REGEN=1 and review the diff",
				path, live.structs[0], locked.version, live.version)
		}
	}
	return os.WriteFile(path, []byte(text), 0o644)
}

// render returns the manifest text for roots and, for each struct in it, the
// name of the version constant that governs it.
func render(roots []Root) (string, map[string]string) {
	pkg := reflect.TypeOf(roots[0].Doc).PkgPath()
	var head, body strings.Builder
	fmt.Fprintf(&head, "# wire manifest for %s, checked by TestWireLocked (see internal/wiretest)\n", pkg)
	governs := map[string]string{}
	var visit func(t reflect.Type, vc string)
	visit = func(t reflect.Type, vc string) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			visit(t.Elem(), vc)
		case reflect.Struct:
			if t.PkgPath() != pkg || governs[t.Name()] != "" {
				return
			}
			governs[t.Name()] = vc
			fmt.Fprintf(&body, "struct %s\n", t.Name())
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				fmt.Fprintf(&body, "\t%s %s", f.Name, f.Type)
				if f.Tag != "" {
					fmt.Fprintf(&body, " `%s`", f.Tag)
				}
				body.WriteByte('\n')
			}
			for i := 0; i < t.NumField(); i++ {
				visit(t.Field(i).Type, vc)
			}
		}
	}
	for _, r := range roots {
		if line := fmt.Sprintf("version %s %q\n", r.VersionConst, r.Version); !strings.Contains(head.String(), line) {
			head.WriteString(line)
		}
		visit(reflect.TypeOf(r.Doc), r.VersionConst)
	}
	return head.String() + body.String(), governs
}

// manifest is a parsed manifest text.
type manifest struct {
	version map[string]string // constant -> quoted value
	structs []string          // in manifest order
	fields  map[string]string // struct -> its header and field lines
}

func parse(text string) manifest {
	m := manifest{version: map[string]string{}, fields: map[string]string{}}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "version "); ok {
			name, val, _ := strings.Cut(rest, " ")
			m.version[name] = val
		} else if name, ok := strings.CutPrefix(line, "struct "); ok {
			m.structs = append(m.structs, name)
			m.fields[name] = line + "\n" // so an empty struct differs from an absent one
		} else if strings.HasPrefix(line, "\t") && len(m.structs) > 0 {
			m.fields[m.structs[len(m.structs)-1]] += line + "\n"
		}
	}
	return m
}
