//go:build deadcode

package akamaidns

// TestDeadcode reports every exported function, method, type, var and
// const in a non-test file that no non-test code reached from the
// module's main packages uses. Run it with `make deadcode`; it is not part
// of the tier-1 suite.
//
// Reachability is per declaration and transitive: the roots are each main
// package's main, every init, and every blank `var _ = f()` whose
// initializer calls something; a declaration is reached when a reached
// declaration names it. A method is also reached when its receiver type
// is reached and the type satisfies a reached interface (or an exported
// interface of an imported standard-library package, such as fmt.Stringer
// or heap.Interface) that declares the method. Only the standard library
// is used: `go list` for the package graph, go/parser and go/types for the
// rest, with standard-library imports read from compiler export data.
//
// It also counts the settable options: every exported field of a struct
// whose type name ends in Config or Options, and every flag a main package
// defines. A field is reported when no reached declaration writes it (a
// composite-literal key, an assignment, ++/--, or &) outside its own
// package's defaults: a Default* constructor or withDefaults, unless the
// value comes from the function's parameters, and a zero-value fallback,
// an assignment inside an if whose condition reads the same field. The
// test logs "settable options: N (fields F, flags G)".
//
// deadcode_allow.txt lists the names the scan may report, one per line
// with a reason after "#"; an option's reason names a writer the scan
// cannot see, bench/, or a deployment setting. The test fails on a
// reported name that is not listed and on a listed name that is no longer
// reported.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

type dcPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
}

// dcChecked is one module package, parsed and type-checked.
type dcChecked struct {
	meta  dcPackage
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func TestDeadcode(t *testing.T) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var metas []dcPackage
	for dec := json.NewDecoder(strings.NewReader(string(out))); dec.More(); {
		var m dcPackage
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		metas = append(metas, m)
	}
	byPath := make(map[string]dcPackage, len(metas))
	for _, m := range metas {
		byPath[m.ImportPath] = m
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	checked := make(map[string]*dcChecked)
	var check func(path string) (*types.Package, error)
	imp := dcImporter(func(path string) (*types.Package, error) {
		if _, ok := byPath[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if c, ok := checked[path]; ok {
			return c.pkg, nil
		}
		m := byPath[path]
		c := &dcChecked{meta: m, info: &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		}}
		for _, f := range m.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(m.Dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			c.files = append(c.files, af)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, c.files, c.info)
		if err != nil {
			return nil, err
		}
		c.pkg = pkg
		checked[path] = c
		return pkg, nil
	}
	var mains []string
	for _, m := range metas {
		if m.Name == "main" {
			mains = append(mains, m.ImportPath)
		}
	}
	for _, m := range metas {
		if _, err := check(m.ImportPath); err != nil {
			t.Fatalf("type-check %s: %v", m.ImportPath, err)
		}
	}

	// Packages reached from the mains through non-test imports.
	inProgram := make(map[string]bool)
	var walk func(string)
	walk = func(p string) {
		if inProgram[p] {
			return
		}
		if _, ok := byPath[p]; !ok {
			return
		}
		inProgram[p] = true
		for _, q := range byPath[p].Imports {
			walk(q)
		}
	}
	for _, p := range mains {
		walk(p)
	}

	// Each top-level declaration and the objects it names.
	decls := make(map[types.Object]ast.Node)
	infoOf := make(map[types.Object]*types.Info)
	var roots []types.Object
	var rootNodes []dcRoot
	for path, c := range checked {
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := c.info.Defs[d.Name]
					if obj == nil {
						continue
					}
					decls[obj] = d
					infoOf[obj] = c.info
					if inProgram[path] && d.Recv == nil && (d.Name.Name == "init" || (c.meta.Name == "main" && d.Name.Name == "main")) {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if obj := c.info.Defs[s.Name]; obj != nil {
								decls[obj] = s
								infoOf[obj] = c.info
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name == "_" {
									if inProgram[path] && dcCalls(s, c.info) {
										rootNodes = append(rootNodes, dcRoot{s, c.info, c.pkg})
									}
									continue
								}
								if obj := c.info.Defs[n]; obj != nil {
									decls[obj] = s
									infoOf[obj] = c.info
								}
							}
						}
					}
				}
			}
		}
	}

	reached := make(map[types.Object]bool)
	var queue []types.Object
	mark := func(obj types.Object) {
		obj = dcOrigin(obj)
		if obj == nil || reached[obj] {
			return
		}
		reached[obj] = true
		queue = append(queue, obj)
	}
	uses := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					mark(obj)
				}
			}
			return true
		})
	}
	for _, r := range roots {
		mark(r)
	}
	for _, r := range rootNodes {
		uses(r.node, r.info)
	}

	// Interfaces a method can be called through without being named: the
	// exported interfaces of every imported standard-library package.
	var stdIfaces []*types.Interface
	stdIfaces = append(stdIfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seenStd := make(map[string]bool)
	for _, c := range checked {
		for _, ip := range c.pkg.Imports() {
			if _, ok := byPath[ip.Path()]; ok || seenStd[ip.Path()] {
				continue
			}
			seenStd[ip.Path()] = true
			for _, name := range ip.Scope().Names() {
				tn, ok := ip.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					stdIfaces = append(stdIfaces, it)
				}
			}
		}
	}

	done := make(map[dcPair]bool)
	for {
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			if d, ok := decls[obj]; ok {
				uses(d, infoOf[obj])
			}
		}
		// Methods reached through interfaces: a reached named type whose
		// method set satisfies a reached or standard interface keeps the
		// methods that interface declares.
		ifaces := append([]*types.Interface(nil), stdIfaces...)
		for obj := range reached {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		// Interface literals (constraints, anonymous parameters) inside
		// reached declarations count too.
		for obj := range reached {
			if d, ok := decls[obj]; ok {
				ast.Inspect(d, func(n ast.Node) bool {
					if e, ok := n.(*ast.InterfaceType); ok {
						if it, ok := infoOf[obj].Types[e].Type.(*types.Interface); ok && it.NumMethods() > 0 {
							ifaces = append(ifaces, it)
						}
					}
					return true
				})
			}
		}
		for obj := range reached {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			ptr := types.NewPointer(named)
			ms := types.NewMethodSet(ptr)
			if ms.Len() == 0 {
				continue
			}
			for _, it := range ifaces {
				if done[dcPair{named, it}] {
					continue
				}
				done[dcPair{named, it}] = true
				// A generic type is matched by method name alone.
				if named.TypeParams().Len() == 0 && !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
						mark(sel.Obj())
					}
				}
			}
		}
		if len(queue) == 0 {
			break
		}
	}

	// Report exported declarations of the module that were not reached.
	var report []string
	for obj := range decls {
		if !obj.Exported() || reached[obj] {
			continue
		}
		if _, ok := byPath[obj.Pkg().Path()]; !ok {
			continue
		}
		report = append(report, dcName(obj))
	}
	sort.Strings(report)

	// Settable options: the exported fields of every Config or Options
	// struct, and every flag a main package defines. A field no reached
	// code writes, outside its own package's defaults, is reported.
	fields := make(map[*types.Var]string)
	for path, c := range checked {
		pkg := strings.TrimPrefix(path, "akamaidns/")
		for _, f := range c.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							if v, ok := c.info.Defs[n].(*types.Var); ok && n.IsExported() {
								fields[v] = fmt.Sprintf("(%s.%s).%s", pkg, ts.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	written := make(map[*types.Var]bool)
	flags := 0
	seenNode := make(map[ast.Node]bool)
	scan := func(n ast.Node, info *types.Info, pkg *types.Package) {
		if seenNode[n] {
			return
		}
		seenNode[n] = true
		// A package's Default* constructors and withDefaults write its
		// defaults, except where the value comes from a parameter: then
		// the caller chooses it, as DefaultConfig(id) does for an ID.
		defaults := false
		params := make(map[types.Object]bool)
		if fd, ok := n.(*ast.FuncDecl); ok && (strings.HasPrefix(fd.Name.Name, "Default") || fd.Name.Name == "withDefaults") {
			defaults = true
			for _, fl := range fd.Type.Params.List {
				for _, id := range fl.Names {
					params[info.Defs[id]] = true
				}
			}
		}
		dcWrites(n, info, fields, func(v *types.Var, guarded bool, value ast.Expr) {
			if v.Pkg() == pkg && (guarded || defaults && !dcMentions(value, info, params)) {
				return
			}
			written[v] = true
		})
		if pkg.Name() == "main" {
			flags += dcFlagDefs(n, info)
		}
	}
	for obj := range reached {
		if d, ok := decls[obj]; ok {
			scan(d, infoOf[obj], obj.Pkg())
		}
	}
	for _, r := range rootNodes {
		scan(r.node, r.info, r.pkg)
	}
	var unset []string
	for v, name := range fields {
		if !written[v] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)

	allow := dcReadAllow(t, "deadcode_allow.txt")
	reported := make(map[string]bool, len(report)+len(unset))
	for _, name := range report {
		reported[name] = true
		if _, ok := allow[name]; !ok {
			t.Errorf("unused outside tests: %s", name)
		}
	}
	for _, name := range unset {
		reported[name] = true
		if reason, ok := allow[name]; !ok {
			t.Errorf("option no non-test code sets: %s", name)
		} else if !dcOptionReason(reason) {
			t.Errorf("deadcode_allow.txt: %s stays for %q, which names no non-test writer, bench/ or deployment setting", name, reason)
		}
	}
	var stale []string
	for name := range allow {
		if !reported[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("deadcode_allow.txt lists %s, which the scan no longer reports", name)
	}
	t.Logf("%d packages from %d mains; %d exported names unused, %d options unset, %d allow-listed", len(inProgram), len(mains), len(report), len(unset), len(allow))
	t.Logf("settable options: %d (fields %d, flags %d)", len(fields)+flags, len(fields), flags)
}

// dcWrites calls write for every field of fields that n writes: a key of a
// composite literal (or a position in an unkeyed one), the left side of an
// assignment or an increment, or an operand of &. guarded is true when the
// write sits in the body of an if whose condition reads the same field: a
// zero-value fallback such as `if cfg.X <= 0 { cfg.X = 5 }`. value is the
// expression written, or nil where there is none (&, ++).
func dcWrites(n ast.Node, info *types.Info, fields map[*types.Var]string, write func(v *types.Var, guarded bool, value ast.Expr)) {
	field := func(e ast.Expr) *types.Var {
		for {
			p, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = p.X
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok {
				if _, ok := fields[v]; ok {
					return v
				}
			}
		}
		return nil
	}
	var walk func(n ast.Node, guard map[*types.Var]bool)
	walk = func(n ast.Node, guard map[*types.Var]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if n.Init != nil {
					walk(n.Init, guard)
				}
				walk(n.Cond, guard)
				inner := make(map[*types.Var]bool, len(guard)+1)
				for v := range guard {
					inner[v] = true
				}
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if e, ok := c.(ast.Expr); ok {
						if v := field(e); v != nil {
							inner[v] = true
						}
					}
					return true
				})
				walk(n.Body, inner)
				if n.Else != nil {
					walk(n.Else, guard)
				}
				return false
			case *ast.CompositeLit:
				st, _ := info.Types[n].Type.Underlying().(*types.Struct)
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok {
								if _, ok := fields[v]; ok {
									write(v, false, kv.Value)
								}
							}
						}
					} else if st != nil && i < st.NumFields() {
						if _, ok := fields[st.Field(i)]; ok {
							write(st.Field(i), false, elt)
						}
					}
				}
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					var value ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						value = n.Rhs[i]
					}
					if v := field(l); v != nil {
						write(v, guard[v], value)
					}
				}
			case *ast.IncDecStmt:
				if v := field(n.X); v != nil {
					write(v, guard[v], nil)
				}
			case *ast.UnaryExpr:
				if v := field(n.X); n.Op == token.AND && v != nil {
					write(v, false, nil)
				}
			}
			return true
		})
	}
	walk(n, nil)
}

// dcMentions reports whether e names any of objs.
func dcMentions(e ast.Expr, info *types.Info, objs map[types.Object]bool) bool {
	found := false
	if e != nil {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
				found = true
			}
			return !found
		})
	}
	return found
}

// dcFlagDefs counts the flag definitions in n: calls of the flag package's
// functions, or of a *flag.FlagSet's methods, that define a flag.
func dcFlagDefs(n ast.Node, info *types.Info) int {
	count := 0
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch f := call.Fun.(type) {
		case *ast.SelectorExpr:
			id = f.Sel
		case *ast.Ident:
			id = f
		}
		if id == nil {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
			return true
		}
		switch fn.Name() {
		case "Bool", "BoolVar", "BoolFunc", "Duration", "DurationVar", "Float64", "Float64Var",
			"Func", "Int", "Int64", "Int64Var", "IntVar", "String", "StringVar", "TextVar",
			"Uint", "Uint64", "Uint64Var", "UintVar", "Var":
			count++
		}
		return true
	})
	return count
}

// dcOptionReason reports whether an allow-list reason for an option names
// what keeps it: a non-test writer the scan cannot see, the benchmark in
// bench/, or a setting a deployment makes.
func dcOptionReason(reason string) bool {
	return strings.Contains(reason, "writer") || strings.Contains(reason, "bench/") || strings.Contains(reason, "deployment setting")
}

type dcImporter func(path string) (*types.Package, error)

func (f dcImporter) Import(path string) (*types.Package, error) { return f(path) }

type dcPair struct {
	t  *types.Named
	it *types.Interface
}

type dcRoot struct {
	node ast.Node
	info *types.Info
	pkg  *types.Package
}

// dcCalls reports whether a blank var spec's initializer calls a function
// (a side effect at init), as opposed to a conversion such as the
// compile-time assertion `var _ I = (*T)(nil)`.
func dcCalls(s *ast.ValueSpec, info *types.Info) bool {
	calls := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !info.Types[call.Fun].IsType() {
				calls = true
			}
			return !calls
		})
	}
	return calls
}

// dcOrigin maps an instantiated generic object back to its declaration.
func dcOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// dcName spells an object as the allow-list does: pkg.Name, or
// (pkg.Type).Method for a method, with the module prefix dropped.
func dcName(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "akamaidns/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if n, ok := rt.(*types.Named); ok {
				return fmt.Sprintf("(%s.%s).%s", pkg, n.Obj().Name(), fn.Name())
			}
		}
	}
	return pkg + "." + obj.Name()
}

// dcReadAllow reads the allow-list: one name per line, then "#" and the
// reason it stays. A line without a reason fails the test.
func dcReadAllow(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, "#")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		if reason == "" {
			t.Errorf("%s:%d: %s has no reason", path, line, name)
		}
		allow[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}
