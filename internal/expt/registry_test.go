package expt

import (
	"context"
	"strings"
	"testing"
)

func TestRegistryHasFullSuite(t *testing.T) {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	if len(ids) < 15 {
		t.Fatalf("registry holds %d experiments, want ≥ 15: %v", len(ids), ids)
	}
	for i, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
		"E9", "E10", "E11", "E12", "E13", "E14", "E15"} {
		if ids[i] != want {
			t.Fatalf("suite order wrong at %d: got %v", i, ids)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	e, ok := Lookup("E7")
	if !ok {
		t.Fatal("E7 not registered")
	}
	if e.Title == "" || e.Claim == "" || e.Run == nil {
		t.Fatalf("E7 descriptor incomplete: %+v", e)
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() {
		Register(Experiment{ID: "E1", Run: func(Suite, context.Context) *Table { return nil }})
	})
	mustPanic("empty id", func() {
		Register(Experiment{Run: func(Suite, context.Context) *Table { return nil }})
	})
	mustPanic("nil run", func() {
		Register(Experiment{ID: "ZNIL"})
	})
}

func TestUnregisterRestoresRegistry(t *testing.T) {
	Register(Experiment{ID: "ZTMP", Title: "tmp", Run: func(Suite, context.Context) *Table {
		return &Table{ID: "ZTMP"}
	}})
	if _, ok := Lookup("ZTMP"); !ok {
		t.Fatal("ZTMP not registered")
	}
	Unregister("ZTMP")
	if _, ok := Lookup("ZTMP"); ok {
		t.Fatal("ZTMP still registered")
	}
}

func TestNewTableUsesRegistryTitle(t *testing.T) {
	tab := newTable("E3", "a", "b")
	e, _ := Lookup("E3")
	if tab.Title != e.Title {
		t.Fatalf("table title %q != registry title %q", tab.Title, e.Title)
	}
	if len(tab.Columns) != 2 {
		t.Fatalf("columns not set: %v", tab.Columns)
	}
}

func TestTableChecks(t *testing.T) {
	tab := &Table{ID: "X"}
	tab.CheckEq("eq", 3, 3)
	tab.CheckLE("le", 1.5, 2, 0)
	tab.CheckGE("ge", 2.5, 2, 0)
	tab.CheckWithin("within", 1.0000001, 1, 1e-6)
	if tab.Failed() {
		t.Fatalf("all checks should pass: %+v", tab.Checks)
	}
	tab.CheckEq("eq-bad", 3, 4)
	tab.CheckLE("le-bad", 2.5, 2, 1e-9)
	tab.CheckGE("ge-bad", 1.5, 2, 1e-9)
	tab.CheckWithin("within-bad", 1.1, 1, 1e-6)
	tab.CheckFail("err-path", "boom")
	if !tab.Failed() {
		t.Fatal("failing checks not detected")
	}
	pass, fail := 0, 0
	for _, c := range tab.Checks {
		if c.Pass {
			pass++
		} else {
			fail++
		}
	}
	if pass != 4 || fail != 5 {
		t.Fatalf("pass=%d fail=%d, want 4/5: %+v", pass, fail, tab.Checks)
	}
}

func TestFprintShowsChecks(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a"}}
	tab.AddRow(1)
	tab.CheckEq("good", 1, 1)
	tab.CheckEq("bad", 1, 2)
	var b strings.Builder
	tab.Fprint(&b)
	out := b.String()
	if !strings.Contains(out, "check [ok]: good") || !strings.Contains(out, "check [FAIL]: bad") {
		t.Fatalf("check lines missing:\n%s", out)
	}
}
