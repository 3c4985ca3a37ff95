package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro"
)

// These tests exercise the public facade end-to-end, the way an
// application would use the library.

func TestQuickstartFlow(t *testing.T) {
	eng := repro.NewEngine()
	drv, err := repro.NewSADrive(eng, repro.BarracudaES(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := drv.Taxonomy().String(); got != "D1A4S1H1" {
		t.Fatalf("taxonomy %s", got)
	}
	var resp repro.Sample
	for i := 0; i < 100; i++ {
		lba := int64(i) * 1e6
		at := float64(i) * 10
		eng.At(at, func() {
			drv.Submit(repro.Request{LBA: lba, Sectors: 16, Read: true},
				func(done float64) { resp.Add(done - at) })
		})
	}
	eng.Run()
	if resp.Count() != 100 {
		t.Fatalf("completed %d of 100", resp.Count())
	}
	if resp.Mean() <= 0 || resp.Mean() > 50 {
		t.Fatalf("mean response %v implausible", resp.Mean())
	}
	b := drv.Power(eng.Now())
	if b.Total() <= 0 {
		t.Fatalf("power %v", b.Total())
	}
}

func TestWorkloadsRoundTrip(t *testing.T) {
	if len(repro.Workloads()) != 4 {
		t.Fatalf("want the paper's four workloads")
	}
	g, err := repro.NewTraceGenerator(repro.Websearch().WithRequests(500), 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := repro.AnalyzeTraceStream(g)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 500 || st.Disks != 6 {
		t.Fatalf("bad trace: %+v", st)
	}
}

func TestSyntheticWorkload(t *testing.T) {
	spec := repro.PaperSynthetic(repro.Heavy, 1<<26).WithRequests(1000)
	g, err := repro.NewSyntheticGenerator(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ok := g.Next(); ok; _, ok = g.Next() {
		n++
	}
	if n != 1000 {
		t.Fatalf("generated %d", n)
	}
}

func TestArrayOfParallelDrives(t *testing.T) {
	eng := repro.NewEngine()
	members := make([]repro.Device, 4)
	var capacity int64
	for i := range members {
		d, err := repro.NewSADrive(eng, repro.BarracudaES(), 2)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = d
		capacity = d.Capacity()
	}
	layout, err := repro.NewRAID0(4, capacity, 128)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := repro.NewArray(layout, members)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 200; i++ {
		lba := int64(i) * 100000
		eng.At(float64(i), func() {
			arr.Submit(repro.Request{LBA: lba, Sectors: 64, Read: i%3 != 0},
				func(float64) { done++ })
		})
	}
	eng.Run()
	if done != 200 {
		t.Fatalf("completed %d of 200", done)
	}
	if arr.Power(eng.Now()).Total() <= 0 {
		t.Fatalf("array power missing")
	}
}

func TestConventionalDriveWithScaling(t *testing.T) {
	eng := repro.NewEngine()
	d, err := repro.NewDrive(eng, repro.BarracudaES(), repro.DriveOptions{
		RotScale: repro.ZeroedScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	var at float64
	eng.At(0, func() {
		d.Submit(repro.Request{LBA: 12345678, Sectors: 8, Read: false},
			func(done float64) { at = done })
	})
	eng.Run()
	if at <= 0 {
		t.Fatalf("request never completed")
	}
}

func TestExperimentFacade(t *testing.T) {
	cfg := repro.ExperimentConfig{Requests: 2000, Seed: 1}
	ls, err := repro.RunLimitStudy(repro.TPCH(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ls.MD.Resp.Count() != 2000 {
		t.Fatalf("MD responses %d", ls.MD.Resp.Count())
	}
	if repro.DefaultExperimentConfig().Requests <= 0 {
		t.Fatalf("default config broken")
	}
}

func TestRebuildFacade(t *testing.T) {
	eng := repro.NewEngine()
	members := make([]repro.Device, 3)
	var capacity int64
	for i := range members {
		d, err := repro.NewSADrive(eng, repro.BarracudaES(), 1)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = d
		capacity = d.Capacity()
	}
	layout, err := repro.NewRAID5(3, capacity, 128)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := repro.NewArray(layout, members)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.FailMember(1); err != nil {
		t.Fatal(err)
	}
	// Rebuild a sliver of the extent would take forever on the full
	// 750 GB member; this test uses a tiny chunk count by rebuilding a
	// synthetic small array instead.
	small := make([]repro.Device, 3)
	engS := repro.NewEngine()
	m := repro.BarracudaES()
	m.Geom.Cylinders = 200
	m.Geom.Zones = 2
	m.Geom.OuterSPT = 100
	m.Geom.InnerSPT = 80
	var smallCap int64
	for i := range small {
		d, err := repro.NewSADrive(engS, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		small[i] = d
		smallCap = d.Capacity()
	}
	layoutS, err := repro.NewRAID5(3, smallCap, 128)
	if err != nil {
		t.Fatal(err)
	}
	arrS, err := repro.NewArray(layoutS, small)
	if err != nil {
		t.Fatal(err)
	}
	if err := arrS.FailMember(2); err != nil {
		t.Fatal(err)
	}
	var copied int64
	engS.At(0, func() {
		if err := arrS.Rebuild(2, 4096, 2, func(n int64) { copied = n }); err != nil {
			t.Errorf("Rebuild: %v", err)
		}
	})
	engS.Run()
	if copied == 0 || arrS.Degraded() {
		t.Fatalf("rebuild incomplete: copied=%d degraded=%v", copied, arrS.Degraded())
	}
}

// docUse matches a facade name cited in prose: repro.Name.
var docUse = regexp.MustCompile(`\brepro\.([A-Z]\w*)`)

// TestFacadeNamesAreUsed keeps the facade from regrowing aliases nobody
// calls. Every exported top-level name in repro.go needs a use: a
// repro.Name selector in another Go file of the repository, a repro.Name
// citation in README.md or DESIGN.md, or a reference from another
// declaration in repro.go (a type a kept signature names).
func TestFacadeNamesAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "repro.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	var exported []string
	for _, decl := range facade.Decls {
		var names []*ast.Ident
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, sp.Name)
				case *ast.ValueSpec:
					names = append(names, sp.Names...)
				}
			}
		}
		own := make(map[string]bool)
		for _, n := range names {
			own[n.Name] = true
			if n.IsExported() {
				exported = append(exported, n.Name)
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// simkit.Engine names the internal type, not the alias.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !own[n.Name] {
					used[n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(decl, visit)
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || d.Name()[0] == '.' {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" || path == "repro.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "repro" {
				continue
			}
			local := "repro"
			if imp.Name != nil {
				local = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docUse.FindAllSubmatch(text, -1) {
			used[string(m[1])] = true
		}
	}

	if len(exported) == 0 {
		t.Fatal("no exported names found in repro.go")
	}
	for _, name := range exported {
		if !used[name] {
			t.Errorf("repro.%s has no use: no repro.%s in the repository's Go files, README.md or DESIGN.md, and no other declaration in repro.go names it", name, name)
		}
	}
}
