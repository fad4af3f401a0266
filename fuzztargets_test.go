package desc

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakeFuzzListsEveryTarget: every fuzz target in the module runs in
// `make fuzz`, against the package that defines it, and every target
// the Makefile names exists. A target missing from the Makefile would
// never run in CI, and go test -fuzz silently fuzzes nothing when a
// name matches no target.
func TestMakeFuzzListsEveryTarget(t *testing.T) {
	defined := map[string]string{} // target -> package path, as go test takes it
	funcRE := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is not part of this one
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = "./" + filepath.ToSlash(filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("found no fuzz targets in the module")
	}

	f, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]string{}
	lineRE := regexp.MustCompile(`-fuzz=(\w+)\s.*\s(\S+)$`)
	inFuzz := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "fuzz:":
			inFuzz = true
		case inFuzz && !strings.HasPrefix(line, "\t"):
			inFuzz = false
		case inFuzz:
			if m := lineRE.FindStringSubmatch(line); m != nil {
				listed[m[1]] = m[2]
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for name, pkg := range defined {
		switch got, ok := listed[name]; {
		case !ok:
			t.Errorf("%s (%s) has no -fuzz=%s line in the Makefile's fuzz target", name, pkg, name)
		case got != pkg:
			t.Errorf("the Makefile fuzzes %s in %s, but it is defined in %s", name, got, pkg)
		}
	}
	for name, pkg := range listed {
		if _, ok := defined[name]; !ok {
			t.Errorf("the Makefile fuzzes %s in %s, but no such fuzz target exists", name, pkg)
		}
	}
}
