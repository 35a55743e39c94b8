package pmlsh

// The docs may name only what exists: a grep-level guard that the prose
// a user follows (README.md, doc.go, the verify skill) and the claim
// ledger (CLAIMS.md) do not outlive the code they name. CHANGES.md and
// ROADMAP.md are history and are not scanned. Four kinds of name are
// checked, the first three against the non-test source:
//
//   - a Prometheus metric pmlsh_…, against the string literals of
//     internal/server and internal/obs (a name may be two literals
//     joined, as prefix+"_http_…" is, plus a histogram's _bucket, _sum
//     or _count);
//   - a -flag on a `pmlsh <sub> …` command line, against the flags the
//     subcommand's FlagSet in cmd/pmlsh registers;
//   - Config.X, QueryStats.X, CPStats.X, Info.X, EngineInfo.X and
//     Index.X, against the fields and methods the root package and
//     internal/core declare on a type of that name;
//   - a TestX, BenchmarkX or FuzzX, against the test functions of every
//     _test.go file in the repository (a prefix of one passes: it is a
//     -run pattern).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var docsScanned = []string{"README.md", "doc.go", "CLAIMS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}

var (
	docMetricRE  = regexp.MustCompile(`pmlsh_[a-z0-9_]+`)
	docCommandRE = regexp.MustCompile("(?:^|[^\\w-])pmlsh (build|query|cp|bench|churn|info|serve)\\b([^`#\\n]*)")
	docFlagRE    = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	docMemberRE  = regexp.MustCompile(`\b(Config|QueryStats|CPStats|Info|EngineInfo|Index)\.([A-Za-z_][A-Za-z0-9_]*)`)
	docTestRE    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*`)
	testFuncRE   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// testFuncs returns the test, benchmark and fuzz functions declared in
// the repository's _test.go files, outside hidden directories (.git, the
// benchmark's build cache).
func testFuncs(t *testing.T) []string {
	var out []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			out = append(out, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// parseSource parses the non-test Go files of dir.
func parseSource(t *testing.T, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	return files
}

// stringLiterals returns every string literal in the non-test source of
// dirs.
func stringLiterals(t *testing.T, dirs ...string) map[string]bool {
	lits := map[string]bool{}
	for _, dir := range dirs {
		for _, f := range parseSource(t, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if bl, ok := n.(*ast.BasicLit); ok && bl.Kind == token.STRING {
					if s, err := strconv.Unquote(bl.Value); err == nil {
						lits[s] = true
					}
				}
				return true
			})
		}
	}
	return lits
}

// registeredFlags maps each cmd/pmlsh subcommand to the flags its
// FlagSet registers: the first string argument of every call on the
// variable flag.NewFlagSet("<sub>", …) was assigned to.
func registeredFlags(t *testing.T) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	firstString := func(args []ast.Expr) (string, bool) {
		for _, a := range args {
			if bl, ok := a.(*ast.BasicLit); ok && bl.Kind == token.STRING {
				s, err := strconv.Unquote(bl.Value)
				return s, err == nil
			}
		}
		return "", false
	}
	for _, f := range parseSource(t, filepath.Join("cmd", "pmlsh")) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sets := map[string]map[string]bool{} // FlagSet variable → flags
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				call, ok := as.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "NewFlagSet" {
					return true
				}
				v, vok := as.Lhs[0].(*ast.Ident)
				sub, sok := firstString(call.Args)
				if vok && sok {
					if out[sub] == nil {
						out[sub] = map[string]bool{}
					}
					sets[v.Name] = out[sub]
				}
				return true
			})
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && sets[x.Name] != nil {
					if name, ok := firstString(call.Args); ok {
						sets[x.Name][name] = true
					}
				}
				return true
			})
		}
	}
	return out
}

// typeMembers maps a type name to the fields and methods the non-test
// source of dirs declares on a type of that name. An alias of another
// package's type (type Info = core.EngineInfo) has its target's members.
func typeMembers(t *testing.T, dirs ...string) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	aliases := map[string]string{}
	add := func(typ, member string) {
		if out[typ] == nil {
			out[typ] = map[string]bool{}
		}
		out[typ][member] = true
	}
	for _, dir := range dirs {
		for _, f := range parseSource(t, dir) {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil || len(d.Recv.List) == 0 {
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						add(id.Name, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if sel, ok := ts.Type.(*ast.SelectorExpr); ok && ts.Assign.IsValid() {
							aliases[ts.Name.Name] = sel.Sel.Name
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								add(ts.Name.Name, name.Name)
							}
						}
					}
				}
			}
		}
	}
	for alias, target := range aliases {
		for member := range out[target] {
			add(alias, member)
		}
	}
	return out
}

func TestDocsNameOnlyWhatExists(t *testing.T) {
	lits := stringLiterals(t, filepath.Join("internal", "server"), filepath.Join("internal", "obs"))
	composed := func(name string) bool {
		if lits[name] {
			return true
		}
		for i := 1; i < len(name); i++ {
			if lits[name[:i]] && lits[name[i:]] {
				return true
			}
		}
		return false
	}
	metricExists := func(name string) bool {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && composed(base) {
				return true
			}
		}
		return composed(name)
	}
	flags := registeredFlags(t)
	if len(flags["build"]) == 0 || len(flags["serve"]) == 0 {
		t.Fatalf("found no flags for pmlsh build/serve in cmd/pmlsh: %v", flags)
	}
	members := typeMembers(t, ".", filepath.Join("internal", "core"))
	tests := testFuncs(t)
	testExists := func(name string) bool {
		return slices.ContainsFunc(tests, func(fn string) bool { return strings.HasPrefix(fn, name) })
	}

	for _, path := range docsScanned {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A shell command continued with a backslash is one command line.
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		for _, name := range docMetricRE.FindAllString(text, -1) {
			if !metricExists(name) {
				t.Errorf("%s names metric %s, which internal/server and internal/obs do not register", path, name)
			}
		}
		for _, m := range docCommandRE.FindAllStringSubmatch(text, -1) {
			sub, args := m[1], m[2]
			for _, f := range docFlagRE.FindAllStringSubmatch(args, -1) {
				if !flags[sub][f[1]] {
					t.Errorf("%s runs `pmlsh %s` with -%s, which that subcommand does not define", path, sub, f[1])
				}
			}
		}
		for _, m := range docMemberRE.FindAllStringSubmatch(text, -1) {
			if !members[m[1]][m[2]] {
				t.Errorf("%s names %s.%s, which neither package pmlsh nor internal/core declares", path, m[1], m[2])
			}
		}
		for _, name := range docTestRE.FindAllString(text, -1) {
			if !testExists(name) {
				t.Errorf("%s names %s, which no _test.go file declares", path, name)
			}
		}
	}
}
