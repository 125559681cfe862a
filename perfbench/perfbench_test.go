package main

import (
	"math/rand"
	"net/http"
	"testing"
)

func TestMMPPIsBurstierThanPoisson(t *testing.T) {
	const n = 20000
	m := sweepdArrivals.generate(rand.New(rand.NewSource(7)), n)
	got := scv(m.gaps())
	if got <= 1.5 {
		t.Fatalf("MMPP inter-arrival SCV = %.3f, want > 1.5", got)
	}
	// A Poisson stream of the same mean rate: one state, no switching.
	rate := float64(n) / m.due[n-1].Seconds()
	p := mmpp{calm: rate}.generate(rand.New(rand.NewSource(7)), n)
	if c := scv(p.gaps()); c < 0.9 || c > 1.1 {
		t.Fatalf("Poisson inter-arrival SCV = %.3f, want about 1", c)
	}
	if s := m.burstShare(); s <= 0 || s >= 1 {
		t.Fatalf("burst share = %.3f, want strictly between 0 and 1", s)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	if _, err := percentile(xs(199), 95); err == nil {
		t.Fatal("p95 of 199 samples (9 beyond) was reported, want a refusal")
	}
	got, err := percentile(xs(200), 95)
	if err != nil {
		t.Fatalf("p95 of 200 samples (10 beyond): %v", err)
	}
	if got != 190 {
		t.Fatalf("p95 of 1..200 = %v, want 190", got)
	}
	if m := median(xs(4)); m != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", m)
	}
}

const body = `{"spec":{},"graph":"g","diameter":2}
{"seed":1,"rounds":10,"gather":true,"detect":true,"moves":3}
{"aggregate":true,"seeds":1,"detected":1,"crashed":0,"rounds":10,"moves":3}
`

func TestCorruptedTableReferenceFails(t *testing.T) {
	tables := map[string][]byte{"E1.txt": []byte("  [PASS] a\n"), "E2.txt": []byte("  [PASS] b\n")}
	ref := tableSummary(tables)
	if err := checkTables(tables, ref); err != nil {
		t.Fatalf("tables against their own reference: %v", err)
	}
	bad := tableSummary(tables)
	bad.Tables["E2.txt"] = sha([]byte("corrupted"))
	if err := checkTables(tables, bad); err == nil {
		t.Fatal("a corrupted table hash passed")
	}
	flipped := map[string][]byte{"E1.txt": tables["E1.txt"], "E2.txt": []byte("  [FAIL] b\n")}
	if err := checkTables(flipped, ref); err == nil {
		t.Fatal("a verdict flipped to [FAIL] passed")
	}
	var tl tally
	tl.verdicts(tables, checkTables(tables, bad))
	if !tl.wrong || tl.attempted != 1 || tl.failed != 1 || tl.ok != 0 {
		t.Fatalf("tally = %+v, want one failed operation in an incorrect run", tl)
	}
}

func TestRecordedFailVerdictIsAFailedOperation(t *testing.T) {
	tables := map[string][]byte{"E1.txt": []byte("  [PASS] a\n  [FAIL] b\n"), "E2.txt": []byte("  [PASS] c\n")}
	ref := tableSummary(tables) // the [FAIL] is the recorded output
	var tl tally
	tl.verdicts(tables, checkTables(tables, ref))
	if tl.wrong || tl.attempted != 3 || tl.ok != 2 || tl.failed != 1 {
		t.Fatalf("tally = %+v, want 2 ok and 1 failed in a correct run", tl)
	}
	if len(tl.errs) != 1 || tl.errs[0] != "E1.txt: [FAIL] b" {
		t.Fatalf("failed operations = %q, want the [FAIL] line", tl.errs)
	}
}

func TestCorruptedServedBodyFails(t *testing.T) {
	req := []byte(`{"workload":"cycle:8"}`)
	v := newVerifier()
	v.ref[string(req)] = []byte("corrupted reference\n")
	lr := loadRound{replies: []reply{
		{req: req, status: http.StatusOK, body: []byte(body)},
		{req: req, status: http.StatusTooManyRequests},
		{req: req, status: http.StatusInternalServerError},
	}}
	var tl tally
	if err := v.tallyRound(lr, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.attempted != 3 || tl.failed != 2 || tl.ok != 0 {
		t.Fatalf("tally = %+v, want 2 failed and 1 shed", tl)
	}
}
