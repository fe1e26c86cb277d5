package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestNamesUnique: scenario names select scenarios and arm names key the
// report's rows, so both must be unique across the whole table.
func TestNamesUnique(t *testing.T) {
	scen, arms := map[string]bool{}, map[string]bool{}
	for _, s := range scenarios {
		if scen[s.name] {
			t.Errorf("scenario %q listed twice", s.name)
		}
		scen[s.name] = true
		if (s.solo == nil) == (len(s.arms) == 0) {
			t.Errorf("scenario %q: want either arms or a solo runner", s.name)
		}
		for _, a := range s.arms {
			if arms[a.name] {
				t.Errorf("arm %q appears twice", a.name)
			}
			arms[a.name] = true
		}
	}
}

// recordRows loads the committed BENCH_fleet.json and splits its rows by
// standard scenario, checking that the table still produces exactly the
// recorded arms in the recorded order.
func recordRows(t *testing.T) map[string][]row {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Modes []row `json:"modes"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	out := map[string][]row{}
	rows := rec.Modes
	for _, s := range scenarios {
		if !s.std {
			continue
		}
		if len(rows) < len(s.arms) {
			t.Fatalf("record ends before scenario %s", s.name)
		}
		for i, a := range s.arms {
			if rows[i].Mode != a.name {
				t.Fatalf("scenario %s arm %d: table says %q, record says %q", s.name, i, a.name, rows[i].Mode)
			}
		}
		out[s.name] = rows[:len(s.arms)]
		rows = rows[len(s.arms):]
	}
	if len(rows) > 0 {
		t.Fatalf("record has %d rows no standard scenario produces, starting at %q", len(rows), rows[0].Mode)
	}
	return out
}

// TestClaimsHoldOnRecord: the committed record meets every claim.
func TestClaimsHoldOnRecord(t *testing.T) {
	rec := recordRows(t)
	for _, s := range scenarios {
		if s.claim == nil || !s.std {
			continue
		}
		if err := s.claim(rec[s.name]); err != nil {
			t.Errorf("scenario %s: %v", s.name, err)
		}
	}
}

// TestClaimsFailOnDoctoredRows: each condition of each claim, broken in
// one recorded row, makes the claim fail.
func TestClaimsFailOnDoctoredRows(t *testing.T) {
	for _, tc := range []struct {
		scenario, mode string
		doctor         func(r *row)
	}{
		{"autoscale", "predictive-holt", func(r *row) { r.P99TTFT = sla.TTFT + 0.01 }},
		{"autoscale", "predictive-holt", func(r *row) { r.ReplicaSeconds = 1500 }},
		{"overload", "overload-shed", func(r *row) { r.P99TTFT = sla.TTFT + 0.01 }},
		{"overload", "overload-noshed", func(r *row) { r.GoodputReq = 12 }},
		{"overload", "overload-admit", func(r *row) { r.GoodputReq = 12 }},
		{"hetero", "hetero-cost", func(r *row) { r.CostSeconds = 1200 }},
		{"faults", "faults-recover", func(r *row) { r.GoodputReq = 9 }},
		{"faults", "faults-recover", func(r *row) { r.P99TTFT = 6.7 }},
		{"multiturn", "multiturn-0.25-affinity", func(r *row) { r.P99TTFT = 0.27 }},
		{"multiturn", "multiturn-0.75-affinity", func(r *row) { r.PrefillTokens = 2_500_000 }},
		{"longctx", "longctx-0.10-slo", func(r *row) { r.ShortP99TTFT = 3.8 }},
		{"longctx", "longctx-0.10-slo", func(r *row) { r.LongAttainment = 0.99 }},
	} {
		rows := append([]row(nil), recordRows(t)[tc.scenario]...)
		found := false
		for i := range rows {
			if rows[i].Mode == tc.mode {
				tc.doctor(&rows[i])
				found = true
			}
		}
		if !found {
			t.Fatalf("no %s row in scenario %s", tc.mode, tc.scenario)
		}
		if err := lookup(tc.scenario).claim(rows); err == nil {
			t.Errorf("%s claim holds with a doctored %s row", tc.scenario, tc.mode)
		}
	}
}

// TestFlagsValidated: each bad command line is refused before anything
// runs (main turns the error into exit status 1).
func TestFlagsValidated(t *testing.T) {
	for _, args := range [][]string{
		{"-phase", "-1"},
		{"-phase", "0"},
		{"-phase", "NaN"},
		{"-phase", "+Inf"},
		{"-replicas", "0"},
		{"-scenario", "scale", "-scale-requests", "-3"},
		{"-scenario", "scale", "-scale-repeat", "0"},
		{"-scenario", "nope"},
		{"-scenario", "autoscale,autoscale"},
		{"-scenario", "faults", "-replicas", "1"},
		{"-scenario", "scale,autoscale"},
		{"-scenario", "autoscale", "extra"},
	} {
		if _, _, err := parse(args); err == nil {
			t.Errorf("fleetsim %s accepted", strings.Join(args, " "))
		}
	}
	_, got, err := parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range got {
		names = append(names, s.name)
	}
	if want := "autoscale,disagg,overload,hetero,faults,multiturn,longctx"; strings.Join(names, ",") != want {
		t.Fatalf("default scenarios %v, want %s", names, want)
	}
}
