package sdb

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/geom"
)

// rowKeys flattens result rows into sortable strings so serial and parallel
// executions can be compared as sets (the parallel merge is deterministic for
// a given pool size but orders rows differently than the serial traversal).
func rowKeys(res *Result) []string {
	keys := make([]string, 0, res.Len())
	for i := 0; i < res.Len(); i++ {
		keys = append(keys, fmt.Sprint(res.Row(i)))
	}
	sort.Strings(keys)
	return keys
}

// TestExecuteContextParallelMatchesSerial runs the same three-way plan
// serially and with several forced pool sizes; every execution must produce
// the identical row set.
func TestExecuteContextParallelMatchesSerial(t *testing.T) {
	plan := planFixture(t, 3000)
	plan.Workers = 1
	serial, err := plan.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := rowKeys(serial)
	if len(want) == 0 {
		t.Fatal("fixture produced no rows; test is vacuous")
	}
	for _, workers := range []int{0, 2, 4} {
		plan.Workers = workers
		got, err := plan.ExecuteContext(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		keys := rowKeys(got)
		if len(keys) != len(want) {
			t.Fatalf("workers=%d: %d rows, serial %d", workers, len(keys), len(want))
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("workers=%d: row set diverges at %d: %s vs %s", workers, i, keys[i], want[i])
			}
		}
	}
}

// TestExecuteContextParallelDeterministic: same plan, same worker count,
// repeated runs must materialize rows in the identical order (the parallel
// merge is by task/chunk order, not completion order).
func TestExecuteContextParallelDeterministic(t *testing.T) {
	plan := planFixture(t, 2500)
	plan.Workers = 4
	first, err := plan.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := plan.ExecuteContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if again.Len() != first.Len() {
			t.Fatalf("run %d: %d rows, want %d", run, again.Len(), first.Len())
		}
		for i := 0; i < first.Len(); i++ {
			if !slices.Equal(first.Row(i), again.Row(i)) {
				t.Fatalf("run %d: row %d differs: %v vs %v", run, i, again.Row(i), first.Row(i))
			}
		}
	}
}

// TestExecuteContextParallelCancelled: a cancelled context aborts the
// parallel executor with context.Canceled just like the serial one.
func TestExecuteContextParallelCancelled(t *testing.T) {
	plan := planFixture(t, 4000)
	plan.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.ExecuteContext(ctx); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestExecuteContextFilterErrorAbortsJoin is the regression test for the
// executor letting the full R-tree traversal run to completion after a filter
// error. The executor resolves every table, window and predicate column
// before the first traversal, so a plan over a dropped table fails up front
// and the join visits no node at all.
func TestExecuteContextFilterErrorAbortsJoin(t *testing.T) {
	c, err := NewCatalogAtLevel(5)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b"} {
		if _, err := c.Create(datagen.Uniform(name, 8000, 0.01, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ta, _ := c.Table("a")
	tb, _ := c.Table("b")
	q := Query{
		Tables:     []string{"a", "b"},
		Predicates: []Predicate{{Left: "a", Right: "b"}},
		// A window covering everything makes the join filter every emitted
		// pair by table "a"'s items.
		Windows: map[string]geom.Rect{"a": geom.UnitSquare},
	}
	plan, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Workers = 1 // the prompt-abort guarantee is about the serial traversal

	// Baseline: how many node accesses a full execution costs. Catalog-built
	// tables join on the packed kernel, so the accounting lives on the packed
	// images.
	ta.Packed.ResetAccesses()
	tb.Packed.ResetAccesses()
	if _, err := plan.ExecuteContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	fullAcc := ta.Packed.Accesses() + tb.Packed.Accesses()
	if fullAcc == 0 {
		t.Fatal("full execution counted no node accesses")
	}

	// Dropping table "a" makes the up-front column resolution fail before
	// either image is touched.
	if !c.Drop("a") {
		t.Fatal("drop failed")
	}
	ta.Packed.ResetAccesses()
	tb.Packed.ResetAccesses()
	_, err = plan.ExecuteContext(context.Background())
	if err == nil || !strings.Contains(err.Error(), `unknown table "a"`) {
		t.Fatalf("want unknown-table error, got %v", err)
	}
	abortAcc := ta.Packed.Accesses() + tb.Packed.Accesses()
	if abortAcc*4 >= fullAcc {
		t.Fatalf("filter error did not abort traversal promptly: %d accesses aborted vs %d full",
			abortAcc, fullAcc)
	}
}
