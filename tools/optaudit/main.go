// Command optaudit keeps the option audit of PR 16 from having to be
// redone by hand. The rule it enforces: an option is something a
// deployment sets. For every exported field of every exported struct under
// internal/ named *Options, *Config, *Mover, Client, Server or WireLanding it lists the
// non-test files that set the field, and a field nobody sets outside
// _test.go files — a second configuration only the tests reach — fails the
// audit unless the allowlist below keeps it, with a reason.
//
// A setter is a keyed composite literal of the struct, or an assignment
// x.Field = v. Types are resolved syntactically, with go/parser alone (the
// module keeps zero dependencies): pkg.Struct through the file's imports, a
// bare Struct in its own package, type aliases (picoprobe.LiveOptions), an
// elided element type through the enclosing slice or map literal; the x of
// an assignment through its declaration in the same function — a parameter,
// a var, a literal, or a call of a function whose first result is the
// struct. An assignment in the file that declares the struct is the
// struct's own defaulting code and does not count.
//
// Usage:
//
//	go run ./tools/optaudit [-v] [root]
//
// -v prints every audited field with its setters. Exit status is non-zero
// for an unset field that is not allowlisted and for an allowlist line that
// no longer names an unset field.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// allowlist names the fields no shipped code sets that stay, one
// "pkg.Struct.Field — reason" per line; # lines are section comments.
// ROADMAP.md records the list with the same reasons. Nothing on it is
// undecided: a field that is neither set by a deployment nor a seam a test
// needs became a constant in PRs 16 and 20.
const allowlist = `
# Kept: fault-injection and clock seams tests substitute through
core.WireOptions.Dial — the wire e2e and chaos tests inject netfault dialers
durable.Options.FS — the torn-write tests substitute a failing filesystem
search.DurableOptions.Durable — carries durable.Options.FS to the catalog's journal for the same tests
transfer.ChunkMover.FS — the torn-manifest tests substitute a failing filesystem
lab.SimMover.FailNext — the sim retry tests
lab.SimMover.FailAfterChunks — the sim resume tests
watcher.Options.FS — the torn-checkpoint tests
wire.Server.Now — clock seam
portal.LimitConfig.Now — clock seam
# Kept: time constants tests shrink; zero = the production value, never "off"
wire.Client.IdleTimeout — 1 min in production; the eviction tests cannot wait that long
wire.Client.Backoff — 50 ms doubling to 2 s in production; the busy-retry tests pin the jitter
transfer.WireLanding.BreakerCooldown — 5 s in production; the chaos soak heals in 150 ms
transfer.WireLanding.RetryBackoff — 100 ms doubling to 5 s in production; the chaos soak retries in 15–250 ms
# Kept: recovery state, credentials and addresses, the paper's ablations
flows.Options.Checkpoints — Engine.Resume reads what it persists
search.DurableOptions.CompactEvery — the snapshot cadence recovery replays from
core.WireOptions.Timeout — the per-op wire deadline of a deployment's link
portal.Config.Issuer — an authenticated portal verifies tokens with it
lab.ExperimentConfig.CompressionRatio — the paper's future-work ablation (BenchmarkAblationCompression) sets it
# Kept: code with tests and no shipped caller, and what would bring it one
emd.DatasetOptions.Compression — the writer's gzip path generates the fixtures for a chunk encoding the reader must accept from files written elsewhere
transfer.ChunkMover.Tuner — the live adaptive path has tests and no benchmark; delete or wire in when ROADMAP "a link that is not loopback" (c) measures it
`

// audited reports whether a struct name is an option surface.
func audited(name string) bool {
	for _, suffix := range []string{"Options", "Config", "Mover"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return name == "Client" || name == "Server" || name == "WireLanding"
}

// field is one audited option field and the non-test files that set it.
type field struct {
	file    string // declaring file
	line    int
	setters map[string]bool
}

// source is one parsed non-test file.
type source struct {
	ast     *ast.File
	path    string
	imports map[string]string // local import name -> package name
}

// typeName resolves a syntactic type (T, pkg.T, *T, *pkg.T) to "pkg.T",
// "" for anything else.
func (s *source) typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return s.typeName(t.X)
	case *ast.Ident:
		return s.ast.Name.Name + "." + t.Name
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok && s.imports[x.Name] != "" {
			return s.imports[x.Name] + "." + t.Sel.Name
		}
	}
	return ""
}

func main() {
	verbose := flag.Bool("v", false, "print every audited field with its setters")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}

	fset := token.NewFileSet()
	var sources []*source
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		src := &source{ast: f, path: filepath.ToSlash(path), imports: map[string]string{}}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			pkg := ipath[strings.LastIndex(ipath, "/")+1:]
			local := pkg
			if imp.Name != nil {
				local = imp.Name.Name
			}
			src.imports[local] = pkg
		}
		sources = append(sources, src)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "optaudit:", err)
		os.Exit(2)
	}

	// Pass 1: the audited fields keyed "pkg.Struct.Field" (package names
	// under internal/ are unique, so the package clause identifies one), the
	// type aliases, and what every top-level function returns first.
	fields := map[string]*field{}
	aliases := map[string]string{}
	returns := map[string]string{}
	for _, src := range sources {
		pkg := src.ast.Name.Name
		rel, _ := filepath.Rel(root, src.path)
		internal := strings.HasPrefix(filepath.ToSlash(rel), "internal/")
		for _, decl := range src.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Type.Results != nil {
					returns[pkg+"."+d.Name.Name] = src.typeName(d.Type.Results.List[0].Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if ts.Assign.IsValid() {
						aliases[pkg+"."+ts.Name.Name] = src.typeName(ts.Type)
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !internal || !ts.Name.IsExported() || !audited(ts.Name.Name) {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields[pkg+"."+ts.Name.Name+"."+id.Name] = &field{
									file: src.path, line: fset.Position(id.Pos()).Line, setters: map[string]bool{},
								}
							}
						}
					}
				}
			}
		}
	}

	// Pass 2: the setters.
	for _, src := range sources {
		set := func(typ, name string, assignment bool) {
			if alias, ok := aliases[typ]; ok {
				typ = alias
			}
			if fd := fields[typ+"."+name]; fd != nil && !(assignment && fd.file == src.path) {
				fd.setters[src.path] = true
			}
		}
		// literal records a composite literal's keyed fields; elided is the
		// element type an untyped literal inherits from its enclosing one.
		var literal func(lit *ast.CompositeLit, elided ast.Expr)
		literal = func(lit *ast.CompositeLit, elided ast.Expr) {
			typ := lit.Type
			if typ == nil {
				typ = elided
			}
			var elem ast.Expr
			switch t := typ.(type) {
			case *ast.ArrayType:
				elem = t.Elt
			case *ast.MapType:
				elem = t.Value
			}
			for _, el := range lit.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
					if key, ok := kv.Key.(*ast.Ident); ok && typ != nil {
						set(src.typeName(typ), key.Name, false)
					}
				}
				if inner, ok := val.(*ast.CompositeLit); ok && inner.Type == nil {
					literal(inner, elem)
				}
			}
		}
		// exprType is the struct a value expression is known to be: a
		// literal, its address, or a call of a function in returns.
		exprType := func(e ast.Expr) string {
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
				e = u.X
			}
			switch v := e.(type) {
			case *ast.CompositeLit:
				if v.Type != nil {
					return src.typeName(v.Type)
				}
			case *ast.CallExpr:
				return returns[src.typeName(v.Fun)]
			}
			return ""
		}
		for _, decl := range src.ast.Decls {
			// vars maps a function's variables to their struct type; one flat
			// scope per top-level function is enough for option plumbing.
			vars := map[string]string{}
			params := func(list *ast.FieldList) {
				if list == nil {
					return
				}
				for _, p := range list.List {
					for _, id := range p.Names {
						vars[id.Name] = src.typeName(p.Type)
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					params(n.Recv)
					params(n.Type.Params)
				case *ast.FuncLit:
					params(n.Type.Params)
				case *ast.CompositeLit:
					if n.Type != nil {
						literal(n, nil)
					}
				case *ast.ValueSpec:
					for i, id := range n.Names {
						if n.Type != nil {
							vars[id.Name] = src.typeName(n.Type)
						} else if i < len(n.Values) {
							vars[id.Name] = exprType(n.Values[i])
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						switch l := lhs.(type) {
						case *ast.Ident:
							// x := T{...}, x := f(), x, err := f()
							if i < len(n.Rhs) && (len(n.Lhs) == len(n.Rhs) || i == 0) {
								if t := exprType(n.Rhs[i]); t != "" {
									vars[l.Name] = t
								}
							}
						case *ast.SelectorExpr:
							// x.Field = v, (*x).Field = v
							x := l.X
							if p, ok := x.(*ast.ParenExpr); ok {
								x = p.X
							}
							if s, ok := x.(*ast.StarExpr); ok {
								x = s.X
							}
							if id, ok := x.(*ast.Ident); ok && vars[id.Name] != "" {
								set(vars[id.Name], l.Sel.Name, true)
							}
						}
					}
				}
				return true
			})
		}
	}

	kept := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(allowlist), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, " — ")
		if !ok || reason == "" {
			fmt.Fprintf(os.Stderr, "optaudit: allowlist line %q is not \"pkg.Struct.Field — reason\"\n", line)
			os.Exit(2)
		}
		kept[name] = true
	}

	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		fd := fields[name]
		setters := make([]string, 0, len(fd.setters))
		for s := range fd.setters {
			setters = append(setters, s)
		}
		sort.Strings(setters)
		if *verbose {
			fmt.Printf("%s\t%s\n", name, strings.Join(setters, " "))
		}
		switch {
		case len(setters) == 0 && !kept[name]:
			fmt.Fprintf(os.Stderr, "%s:%d: %s is set by no non-test file: make it a constant, or allowlist it with a reason\n", fd.file, fd.line, name)
			failed++
		case len(setters) > 0 && kept[name]:
			fmt.Fprintf(os.Stderr, "%s:%d: %s is allowlisted but %s sets it: drop the allowlist line\n", fd.file, fd.line, name, setters[0])
			failed++
		}
	}
	allowed := len(kept)
	for name := range kept {
		if fields[name] == nil {
			fmt.Fprintf(os.Stderr, "optaudit: allowlisted %s is not an audited field: drop the allowlist line\n", name)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "optaudit: %d problem(s) across %d option field(s)\n", failed, len(fields))
		os.Exit(1)
	}
	// The split is what the next tightening needs: "two shipped callers with
	// different values" applies to the production count alone.
	inLab := 0
	for _, name := range names {
		if strings.HasPrefix(name, "lab.") {
			inLab++
		}
	}
	fmt.Printf("optaudit: %d option field(s): %d in production packages, %d in internal/lab; %d kept by the allowlist, every other one set by shipped code\n",
		len(fields), len(fields)-inLab, inLab, allowed)
}
