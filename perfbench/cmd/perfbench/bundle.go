package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// writeFlightBundle cuts the flight recorder's diagnostic bundle the way
// `reachsim -cluster -flight DIR` does (the CLI assembles it in package
// main, so the benchmark repeats the same public calls): verdict.json,
// the windowed trace.json, stragglers.txt, domains.json and state.json.
// It returns the bytes written.
func writeFlightBundle(dir string, fr *flight.Recorder, cl *cluster.Cluster, nodes int, rec *metrics.MultiRecorder) (int64, error) {
	v := fr.Verdict()
	name := "bundle-final"
	if fr.Frozen() {
		name = fmt.Sprintf("bundle-%dus", int64(v.TriggerMS*1000))
	}
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(path, 0o755); err != nil {
		return 0, err
	}
	var total int64
	writeJSON := func(file string, v any) error {
		raw, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		total += int64(len(raw)) + 1
		return os.WriteFile(filepath.Join(path, file), append(raw, '\n'), 0o644)
	}

	from, to := fr.Window()
	inWindow := map[int]bool{}
	for _, q := range fr.WindowQueries() {
		inWindow[q.ID] = true
	}
	var recs []cluster.StragglerRecord
	for _, r := range cl.Stragglers() {
		if inWindow[r.Query] {
			recs = append(recs, r)
		}
	}
	verdict := struct {
		flight.Verdict
		DominantCause string `json:"dominant_cause,omitempty"`
		WindowQueries int    `json:"window_queries"`
	}{v, cluster.DominantCause(recs), len(inWindow)}
	if err := writeJSON("verdict.json", verdict); err != nil {
		return 0, err
	}

	tl := trace.NewTimeline()
	tl.AddCluster(nodes, fr.WindowLog(), metrics.WindowOf(rec.Sampler, from, to), metrics.WindowSpans(rec.Spans, from, to))
	n, err := writeFile(filepath.Join(path, "trace.json"), tl.WriteJSON)
	total += n
	if err != nil {
		return 0, err
	}

	n, err = writeFile(filepath.Join(path, "stragglers.txt"), func(w io.Writer) error {
		if st := cluster.StragglerTable(recs); st != nil {
			return st.Render(w)
		}
		_, err := fmt.Fprintln(w, "no scattered merges completed in the retained window")
		return err
	})
	total += n
	if err != nil {
		return 0, err
	}

	domains := struct {
		WindowFromUS float64                `json:"window_from_us"`
		WindowToUS   float64                `json:"window_to_us"`
		Samples      []flight.BarrierSample `json:"samples"`
	}{from.Microseconds(), to.Microseconds(), fr.BarrierWindow()}
	if err := writeJSON("domains.json", domains); err != nil {
		return 0, err
	}

	rt := cl.RouterStats()
	state := struct {
		Submitted     int      `json:"submitted"`
		Completed     int      `json:"completed"`
		RoutePolicy   string   `json:"route_policy"`
		RouterRouted  []uint64 `json:"router_routed"`
		RouterPeak    []int    `json:"router_peak"`
		Imbalance     float64  `json:"imbalance"`
		PeakImbalance float64  `json:"peak_imbalance"`
	}{cl.Submitted(), cl.Completed(), rt.Policy().String(), rt.Routed(), rt.Peak(), rt.Imbalance(), rt.PeakImbalance()}
	if err := writeJSON("state.json", state); err != nil {
		return 0, err
	}
	return total, nil
}
