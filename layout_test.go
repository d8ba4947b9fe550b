package fbdetect

// Tests of the repository's layout: which packages a shipped binary
// links, that DESIGN.md's module inventory names every internal package,
// that the README's knob inventory names every Config field, and that
// its flag tables name every flag of the served binaries.

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "fbdetect"

// moduleDeps returns every package of this module that pkg (a directory
// relative to the module root, "." for the root) reaches through non-test
// imports, as directories relative to the module root.
func moduleDeps(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		p, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("reading package %s: %v", dir, err)
		}
		for _, imp := range p.Imports {
			dep, ok := strings.CutPrefix(imp, modulePath+"/")
			if imp == modulePath {
				dep, ok = ".", true
			}
			if ok && !seen[dep] {
				seen[dep] = true
				visit(dep)
			}
		}
	}
	visit(pkg)
	return seen
}

// The binaries link the detector and the services they run, never the
// simulators and experiments the reproduction is evaluated with; the root
// package is the detector library and imports no simulator.
func TestImportGraph(t *testing.T) {
	experimentOnly := []string{"internal/kraken", "internal/pyperf", "internal/tao",
		"internal/egads", "internal/experiments", "internal/evalharness"}
	simulators := []string{"internal/fleet", "internal/kraken", "internal/pyperf",
		"internal/tao", "internal/tracing"}
	cases := []struct {
		pkg       string
		mustReach string // keeps the walk honest: a dependency the package has
		forbidden []string
	}{
		{"cmd/fbdetect-server", "internal/controlplane",
			append(experimentOnly, "internal/fleet", "internal/tracing")},
		{"cmd/fbdetect-worker", "internal/distributed", append(experimentOnly, simulators...)},
		{".", "internal/core", append(simulators, "internal/egads",
			"internal/experiments", "internal/evalharness")},
	}
	for _, c := range cases {
		deps := moduleDeps(t, c.pkg)
		if !deps[c.mustReach] {
			t.Errorf("%s: does not reach %s; the import walk is broken", c.pkg, c.mustReach)
		}
		for _, f := range c.forbidden {
			if deps[f] {
				t.Errorf("%s links %s", c.pkg, f)
			}
		}
	}
}

// DESIGN.md's system inventory names every internal package in its module
// column, and every internal/... path named there exists.
func TestDesignInventoryMatchesPackages(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, ok := strings.Cut(string(design), "\n## System inventory\n")
	if !ok {
		t.Fatal("DESIGN.md has no System inventory section")
	}
	if i := strings.Index(inventory, "\n## "); i >= 0 {
		inventory = inventory[:i]
	}
	named := map[string]bool{}
	pathRE := regexp.MustCompile("`(internal/[a-z0-9_/]+)`")
	for _, line := range strings.Split(inventory, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range pathRE.FindAllStringSubmatch(cells[1], -1) {
			named[m[1]] = true
		}
	}

	pkgs := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			pkgs[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages")
	}
	for p := range pkgs {
		if !named[p] {
			t.Errorf("internal package %s has no row in DESIGN.md's module column", p)
		}
	}
	for p := range named {
		if !pkgs[p] {
			t.Errorf("DESIGN.md's module column names %s, which is not a package", p)
		}
	}
}

// configKnobs maps the dotted path of every settable value of Config
// (e.g. "WentAway.SAXBuckets") to its field index, descending into
// struct-typed fields.
func configKnobs() map[string][]int {
	knobs := map[string][]int{}
	var walk func(t reflect.Type, prefix string, index []int)
	walk = func(t reflect.Type, prefix string, index []int) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			idx := append(append([]int{}, index...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, prefix+f.Name+".", idx)
				continue
			}
			knobs[prefix+f.Name] = idx
		}
	}
	walk(reflect.TypeOf(Config{}), "", nil)
	return knobs
}

// The README's "Configuration knobs" table has one row per settable
// value of Config, and every row names one.
func TestConfigKnobsDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Configuration knobs\n")
	if !ok {
		t.Fatal("README.md has no Configuration knobs section")
	}
	if i := strings.Index(section, "\n#"); i >= 0 {
		section = section[:i]
	}
	rows := map[string]bool{}
	pathRE := regexp.MustCompile("^ *`([A-Za-z.]+)` *$")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		if m := pathRE.FindStringSubmatch(cells[1]); m != nil {
			rows[m[1]] = true
		}
	}
	knobs := configKnobs()
	if len(knobs) == 0 {
		t.Fatal("found no Config fields")
	}
	for k := range knobs {
		if !rows[k] {
			t.Errorf("Config field %s has no row in the README's knob table", k)
		}
	}
	for r := range rows {
		if _, ok := knobs[r]; !ok {
			t.Errorf("the README's knob table names %s, which is not a Config field", r)
		}
	}
}

// binaryFlags returns the names of the flags main.go in dir defines
// through flag.X("name", ...) calls.
func binaryFlags(t *testing.T, dir string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		return true
	})
	return names
}

// The README section of each served binary has a flag table with
// exactly one row per flag its main.go defines, and every row names one.
func TestServedFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rowRE := regexp.MustCompile("^ *`-([a-z-]+)` *$")
	headingRE := regexp.MustCompile("\n##+ ")
	for _, c := range []struct{ dir, section string }{
		{"cmd/fbdetect-worker", "### Durability & recovery"},
		{"cmd/fbdetect-server", "### Running the control plane"},
	} {
		_, section, ok := strings.Cut(string(readme), "\n"+c.section+"\n")
		if !ok {
			t.Fatalf("README.md has no %q section", c.section)
		}
		// The next heading ends the section; a "# comment" in a shell
		// block does not.
		if loc := headingRE.FindStringIndex(section); loc != nil {
			section = section[:loc[0]]
		}
		rows := map[string]int{}
		for _, line := range strings.Split(section, "\n") {
			cells := strings.Split(line, "|")
			if len(cells) < 3 {
				continue
			}
			if m := rowRE.FindStringSubmatch(cells[1]); m != nil {
				rows[m[1]]++
			}
		}
		flags := binaryFlags(t, c.dir)
		if len(flags) == 0 {
			t.Fatalf("%s: found no flags", c.dir)
		}
		defined := map[string]bool{}
		for _, f := range flags {
			defined[f] = true
			if rows[f] != 1 {
				t.Errorf("%s flag -%s has %d rows in the README's %q flag table, want 1", c.dir, f, rows[f], c.section)
			}
		}
		for r := range rows {
			if !defined[r] {
				t.Errorf("the README's %q flag table names -%s, which %s does not define", c.section, r, c.dir)
			}
		}
	}
}
