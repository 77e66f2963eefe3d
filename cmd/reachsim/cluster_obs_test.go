package main

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestValidateFlagMatrix pins the flag-combination contract: a flag the
// selected mode would silently ignore is an error, every meaningful
// combination is accepted. Before observability reached the -cluster
// path, `-cluster -metrics` ran and did nothing; now the ignored combos
// fail fast and the meaningful ones do work (see the artifact test below).
// A numeric value the run would have to replace is rejected by name.
func TestValidateFlagMatrix(t *testing.T) {
	// given maps "name" to a set flag and "name=value" to a set flag with
	// that value (int, float or duration, as its flag parses it, else the
	// string).
	given := func(flags ...string) map[string]any {
		m := map[string]any{}
		for _, f := range flags {
			name, val, ok := strings.Cut(f, "=")
			if !ok {
				m[name] = true
				continue
			}
			if n, err := strconv.Atoi(val); err == nil {
				m[name] = n
			} else if x, err := strconv.ParseFloat(val, 64); err == nil {
				m[name] = x
			} else if d, err := time.ParseDuration(val); err == nil {
				m[name] = d
			} else {
				m[name] = val
			}
		}
		return m
	}
	rejected := []struct {
		flags []string
		want  string // substring of the error
	}{
		{[]string{"cluster", "exp"}, "-exp"},
		{[]string{"cluster", "stats"}, "-stats"},
		{[]string{"cluster", "list"}, "-list"},
		{[]string{"cluster", "config"}, "-config"},
		{[]string{"cluster", "j"}, "-j"},
		{[]string{"cluster", "qtrace"}, "-qtrace"},
		{[]string{"cluster", "progress"}, "-progress"},
		{[]string{"nodes"}, "-nodes requires -cluster"},
		{[]string{"route"}, "-route requires -cluster"},
		{[]string{"cache"}, "-cache requires -cluster"},
		{[]string{"cache-ttl"}, "-cache-ttl requires -cluster"},
		{[]string{"slo"}, "-slo requires -cluster"},
		{[]string{"slo-window"}, "-slo-window requires -cluster"},
		{[]string{"cluster", "slo-window"}, "-slo-window requires -slo"},
		{[]string{"cluster", "cache", "cache-ttl", "slo-window"}, "-slo-window requires -slo"},
		{[]string{"cluster", "cache-ttl"}, "-cache-ttl requires -cache"},
		{[]string{"http-linger"}, "-http-linger requires -http"},
		{[]string{"cluster", "http-linger"}, "-http-linger requires -http"},
		{[]string{"flight"}, "-flight requires -cluster"},
		{[]string{"arrival"}, "-arrival requires -cluster"},
		{[]string{"flight-window"}, "-flight-window requires -cluster"},
		{[]string{"cluster", "flight-window"}, "-flight-window requires -flight"},
		{[]string{"cluster", "detect"}, "-detect requires -flight"},
		{[]string{"cluster", "detect", "flight-window"}, "requires -flight"},
		{[]string{"j=-2"}, "-j must not be negative"},
		{[]string{"pj=-3"}, "-pj must not be negative"},
		{[]string{"cluster", "cache=-5"}, "-cache must not be negative"},
		{[]string{"cluster", "cache", "cache-ttl=-1.5"}, "-cache-ttl must not be negative"},
		{[]string{"cluster", "nodes=0"}, "-nodes must be positive"},
		{[]string{"cluster", "slo=-1"}, "-slo must be positive"},
		{[]string{"cluster", "slo", "slo-window=0"}, "-slo-window must be positive"},
		{[]string{"cluster", "flight", "flight-window=-5"}, "-flight-window must be positive"},
		{[]string{"metrics", "metrics-interval=0s"}, "-metrics-interval must be positive"},
		{[]string{"stats", "exp=fig8", "j=3", "config", "qtrace"}, "does nothing with -stats"},
		{[]string{"stats", "exp=fig8"}, "-exp does nothing with -stats"},
		{[]string{"stats", "j=3"}, "-j does nothing with -stats"},
		{[]string{"stats", "config"}, "-config does nothing with -stats"},
		{[]string{"stats", "qtrace"}, "-qtrace does nothing with -stats"},
		{[]string{"stats", "trace"}, "-trace does nothing with -stats"},
		{[]string{"stats", "metrics"}, "-metrics does nothing with -stats"},
		{[]string{"trace", "exp=fig8", "list", "progress"}, "does nothing with -trace"},
		{[]string{"trace", "exp=fig8"}, "-exp does nothing with -trace"},
		{[]string{"trace", "list"}, "-list does nothing with -trace"},
		{[]string{"trace", "progress"}, "-progress does nothing with -trace"},
		{[]string{"trace", "csv"}, "-csv does nothing with -trace"},
		{[]string{"trace", "http"}, "-http does nothing with -trace"},
		{[]string{"trace", "pj"}, "-pj does nothing with -trace"},
		{[]string{"list", "exp=fig8"}, "-exp does nothing with -list"},
		{[]string{"list", "csv"}, "-csv does nothing with -list"},
		{[]string{"list", "j"}, "-j does nothing with -list"},
		{[]string{"list", "spans"}, "-spans does nothing with -list"},
		{[]string{"config"}, "-config only applies to -exp table2"},
		{[]string{"exp=all", "config"}, "-config only applies to -exp table2"},
		{[]string{"exp=fig8", "config"}, "-config only applies to -exp table2"},
		{[]string{"spans"}, "-spans requires -metrics"},
		{[]string{"exp=table1", "spans"}, "-spans requires -metrics"},
		{[]string{"exp=table1", "metrics-interval=5us"}, "-metrics-interval requires -metrics"},
		{[]string{"exp=fig9", "qtrace", "spans", "metrics-interval"}, "requires -metrics"},
	}
	for _, c := range rejected {
		err := validateFlags(given(c.flags...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("flags %v: err = %v, want %q", c.flags, err, c.want)
		}
	}
	accepted := [][]string{
		{},
		{"exp", "j", "csv", "metrics", "metrics-interval", "spans", "qtrace", "progress"},
		{"exp", "j=0", "pj=0", "metrics", "metrics-interval=10us"}, // 0 = GOMAXPROCS / config default
		{"exp", "http", "http-linger"},
		{"pj"}, // clustersweep spends -pj without -cluster
		{"trace", "spans", "metrics-interval"},
		{"cluster", "nodes", "route", "pj", "cache", "cache-ttl", "csv"},
		{"cluster", "nodes=8", "cache=0", "cache-ttl=0", "slo=250", "slo-window=50", "flight", "flight-window=1000"},
		{"cluster", "metrics", "metrics-interval", "spans", "trace", "slo", "slo-window", "http", "http-linger"},
		{"cluster", "flight"},
		{"cluster", "spans"},
		{"cluster", "metrics-interval"},
		{"cluster", "flight", "flight-window", "detect", "arrival", "slo", "metrics", "trace"},
		{"stats", "csv"},
		{"stats", "csv", "cpuprofile", "memprofile"},
		{"trace", "metrics", "metrics-interval", "spans", "cpuprofile"},
		{"list"},
		{"list", "memprofile"},
		{"exp=table2", "config"},
		{"exp=table2", "config", "csv", "j"},
	}
	for _, flags := range accepted {
		if err := validateFlags(given(flags...)); err != nil {
			t.Errorf("flags %v: unexpected error %v", flags, err)
		}
	}
}

// TestClusterObsSmokeArtifacts validates the files `make
// cluster-obs-smoke` produced: the trace JSON must parse into
// Chrome-trace events with per-node process groups and the report must
// carry all three tables. The byte-diffs across -pj already ran in the
// recipe. Skipped unless CLUSTER_OBS_SMOKE_DIR points at the smoke
// output directory.
func TestClusterObsSmokeArtifacts(t *testing.T) {
	dir := os.Getenv("CLUSTER_OBS_SMOKE_DIR")
	if dir == "" {
		t.Skip("CLUSTER_OBS_SMOKE_DIR not set; run via `make cluster-obs-smoke`")
	}

	t.Run("trace-json", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "trace-pj1.json"))
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil {
			t.Fatalf("trace is not valid Chrome-trace JSON: %v", err)
		}
		procs := map[float64]string{}
		var slices, spans int
		for _, e := range events {
			switch e["ph"] {
			case "M":
				if e["name"] == "process_name" {
					args, _ := e["args"].(map[string]any)
					procs[e["pid"].(float64)], _ = args["name"].(string)
				}
			case "X":
				slices++
				if cat, _ := e["cat"].(string); strings.HasPrefix(cat, "gam.") {
					spans++
				}
			}
		}
		if procs[1] != "front end" || len(procs) < 2 {
			t.Errorf("process groups = %v, want front end + nodes", procs)
		}
		if slices == 0 || spans == 0 {
			t.Errorf("trace missing event classes: %d slices, %d gam spans", slices, spans)
		}
	})

	t.Run("report-tables", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, "report-pj1.txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"Cluster scatter-gather", "Straggler attribution", "SLO windows",
		} {
			if !strings.Contains(string(raw), want) {
				t.Errorf("report missing %q", want)
			}
		}
	})

	t.Run("metrics-csv", func(t *testing.T) {
		f, err := os.Open(filepath.Join(dir, "metrics-pj1.csv"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 2 {
			t.Fatal("metrics CSV has no data rows")
		}
		if got, want := strings.Join(rows[0], ","), strings.Join(metrics.CSVHeader(), ","); got != want {
			t.Errorf("metrics CSV header %q, want %q", got, want)
		}
	})
}

// TestClusterObsArtifactsParallelInvariant is the tentpole's CLI
// acceptance bar: with every observability sink on — barrier metrics,
// spans, the Chrome trace and the SLO monitor — the pinned -cluster run
// produces byte-identical stdout and artifacts at -pj 1, 4 and 8, and the
// artifacts are well-formed (straggler attribution table, SLO window
// table, parseable trace JSON, schema-true metrics CSV).
func TestClusterObsArtifactsParallelInvariant(t *testing.T) {
	type rendered struct {
		stdout  string
		metrics []byte
		trace   []byte
	}
	render := func(pj int) rendered {
		dir := t.TempDir()
		mpath := filepath.Join(dir, "metrics.csv")
		tpath := filepath.Join(dir, "trace.json")
		var out strings.Builder
		err := runCluster(&out, clusterOptions{
			pj:          pj,
			metrics:     &metrics.Options{Spans: true},
			metricsPath: mpath,
			tracePath:   tpath,
			sloMs:       250,
			sloWindowMs: 100,
		})
		if err != nil {
			t.Fatalf("pj=%d: %v", pj, err)
		}
		m, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := os.ReadFile(tpath)
		if err != nil {
			t.Fatal(err)
		}
		return rendered{stdout: out.String(), metrics: m, trace: tr}
	}

	serial := render(1)
	for _, want := range []string{
		"Cluster scatter-gather",
		"Straggler attribution",
		"SLO windows",
		"dominant cause",
	} {
		if !strings.Contains(serial.stdout, want) {
			t.Errorf("observed -cluster stdout missing %q:\n%s", want, serial.stdout)
		}
	}
	// The summary table itself must match the unobserved golden: turning
	// observability on never moves a simulated number.
	golden, err := os.ReadFile(filepath.Join("testdata", "cluster_smoke.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(serial.stdout, string(golden)) {
		t.Errorf("observed run's summary diverged from cluster_smoke.golden:\n%s", serial.stdout)
	}

	rows, err := csv.NewReader(strings.NewReader(string(serial.metrics))).ReadAll()
	if err != nil {
		t.Fatalf("metrics CSV unreadable: %v", err)
	}
	if len(rows) < 2 {
		t.Fatal("metrics CSV has no data rows")
	}
	if got, want := strings.Join(rows[0], ","), strings.Join(metrics.CSVHeader(), ","); got != want {
		t.Errorf("metrics CSV header %q, want %q", got, want)
	}
	sawNode, sawDomain := false, false
	for _, row := range rows[1:] {
		if strings.HasPrefix(row[3], "node") {
			sawNode = true
		}
		if strings.HasPrefix(row[3], "sim.domain") {
			sawDomain = true
		}
	}
	if !sawNode || !sawDomain {
		t.Errorf("metrics CSV missing series classes: node=%v domain=%v", sawNode, sawDomain)
	}

	var events []map[string]any
	if err := json.Unmarshal(serial.trace, &events); err != nil {
		t.Fatalf("trace is not valid Chrome-trace JSON: %v", err)
	}
	procs := 0
	for _, e := range events {
		if e["ph"] == "M" && e["name"] == "process_name" {
			procs++
		}
	}
	if procs < 2 {
		t.Errorf("trace has %d process groups, want front end + nodes", procs)
	}

	for _, pj := range []int{4, 8} {
		got := render(pj)
		if got.stdout != serial.stdout {
			t.Errorf("-pj %d stdout diverged from -pj 1", pj)
		}
		if string(got.metrics) != string(serial.metrics) {
			t.Errorf("-pj %d metrics CSV diverged from -pj 1", pj)
		}
		if string(got.trace) != string(serial.trace) {
			t.Errorf("-pj %d trace JSON diverged from -pj 1", pj)
		}
	}
}
