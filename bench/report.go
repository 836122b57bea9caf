package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/bench/stats"
)

// layerOf names the layer a span's self time is charged to: the
// benchmark's own root spans are the "bench" layer, core's composite
// steps go to the layer doing their work, and any other span named
// <package>.<call> goes to its package.
func layerOf(name string) string {
	switch name {
	case "pass", "campaign.op":
		return "bench"
	case "core.NewFlow", "core.CompareSampling":
		return "core"
	case "core.ProfileOperators", "core.FullTG", "tpg.RawRandomSequence":
		return "tpg"
	case "core.Equivalent":
		return "mutscore"
	case "core.ATPGTopoff", "core.SequentialATPGTopoff":
		return "atpg"
	case "campaign.Submit", "campaign.Status", "campaign.Result":
		return "campaign.client"
	case "campaign.wait":
		return "campaign.wait"
	}
	if strings.HasPrefix(name, "campaign.handler.") {
		return "campaign.server"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layers are the layers the per-layer self-time shares are reported for.
var layers = []string{
	"bench", "core", "tpg", "mutscore", "atpg", "synth", "netlist", "mutation", "faultsim",
	"campaign.client", "campaign.server", "campaign.wait",
}

// countMetrics are the per-layer counts and ratios the workloads record,
// with their units. A workload that does not reach a layer reports 0.
var countMetrics = []struct{ name, unit string }{
	{"netlist.gates", "count"},
	{"mutation.mutants", "count"},
	{"faultsim.faults", "count"},
	{"faultsim.detected", "count"},
	{"tpg.seq_len", "count"},
	{"atpg.podem_calls", "count"},
	{"atpg.backtracks", "count"},
	{"atpg.aborted", "count"},
	{"atpg.redundant", "count"},
	{"atpg.vectors", "count"},
	{"atpg.abort_frac", "frac"},
	{"campaign.cache_hits", "count"},
	{"campaign.cache_misses", "count"},
	{"campaign.cache_diskhits", "count"},
	{"campaign.polls_per_job", "count"},
	{"campaign.twin_dup_frac", "frac"},
}

// endToEnd computes the end-to-end metrics of an untraced stretch.
//
// The timings read the fast end of the run. Every pass is the same
// work, and load from outside the benchmark only ever adds time: on
// busy hosts the 10-run interquartile spread of the median pass reached
// 15-23%, and that of the fastest pass 4-9%.
//
// fastest_pass_ms is the fastest pass. op_p10_ms is the 10th percentile
// of one request's latency. On the campaign a request is a repeat, a
// job served from cache, submit to result bytes: the service path
// (HTTP, job keying, cache) that executed jobs, and so the pass time,
// hide. On the batch workloads, whose requests in a pass are all
// different work, it is the pass time per request.
func endToEnd(o *output) map[string]metric {
	r := o.untraced
	return map[string]metric{
		"setup_s":         {stats.Median(o.setup), "s"},
		"fastest_pass_ms": {stats.Percentile(r.passes, 0), "ms"},
		"op_p10_ms":       {stats.Percentile(r.ops, 10), "ms"},
		"alloc_mb":        {stats.Percentile(r.allocMB, 50), "MB"},
	}
}

// perLayer computes the per-layer metrics of the traced stretch.
func perLayer(o *output) map[string]metric {
	r := o.traced
	self := selfTimes(o.spans)
	byLayer := make(map[string]float64) // self seconds inside passes
	var total float64
	for _, s := range o.spans {
		if s.Pass < 0 {
			continue
		}
		sec := float64(self[s.ID]) / 1e9
		byLayer[layerOf(s.Name)] += sec
		total += sec
	}
	m := make(map[string]metric)
	for _, l := range layers {
		pct := 0.0
		if total > 0 {
			pct = 100 * byLayer[l] / total
		}
		m[l+".self_pct"] = metric{pct, "%"}
	}
	for _, c := range countMetrics {
		m[c.name] = metric{r.counts[c.name], c.unit}
	}
	// Rates divide a pass's count by the layer's self time per pass.
	passes := float64(len(r.passes))
	m["atpg.backtracks_per_s"] = metric{rate(r.counts["atpg.backtracks"], byLayer["atpg"]/passes), "1/s"}
	var simSec float64
	for _, s := range o.spans {
		if s.Pass >= 0 && (s.Name == "faultsim.Append" || s.Name == "faultsim.Run") {
			simSec += float64(self[s.ID]) / 1e9
		}
	}
	m["faultsim.Mfaultcycles_per_s"] = metric{rate(r.counts["faultsim.faultcycles"]/1e6, simSec/passes), "M/s"}
	return m
}

// report prints the human-readable lines and then the result line.
func report(w io.Writer, wl *workload, o *output) {
	fmt.Fprintf(w, "workload %s\n", wl.name)
	for _, r := range o.records() {
		for _, e := range r.errs {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", wl.name, e)
		}
	}
	r := o.untraced
	e2e := endToEnd(o)
	printMetrics(w, e2e, map[string]int{"setup_s": len(o.setup), "fastest_pass_ms": len(r.passes), "alloc_mb": len(r.allocMB), "op_p10_ms": len(r.ops)})
	fmt.Fprintf(w, "  %-30s %14.4f %-6s n=%d\n", "pass_p50_ms", stats.Percentile(r.passes, 50), "ms", len(r.passes))
	fmt.Fprintf(w, "  %-30s %14.4f %-6s\n", "peak_rss_mb", o.peakRSSMB, "MB")
	fmt.Fprintf(w, "  %-30s %14.4f %-6s (%d/%d)\n", "failed_frac", frac(r.failed, r.attempted), "", r.failed, r.attempted)
	printClasses(w, r)

	res := result{Correct: o.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: e2e}
	if t := o.traced; t != nil {
		fmt.Fprintf(w, "traced stretch\n")
		printClasses(w, t)
		fmt.Fprintf(w, "  %-30s %+14.4f        (traced fastest pass / untraced fastest pass - 1)\n",
			"trace_overhead", stats.Percentile(t.passes, 0)/stats.Percentile(r.passes, 0)-1)
		pl := perLayer(o)
		printMetrics(w, pl, nil)
		printSpans(w, o.spans)
		res = result{Correct: o.correct(), Attempted: t.attempted, Failed: t.failed, Metrics: pl}
	}
	golden := "none recorded for this seed"
	switch {
	case o.golden == "":
	case o.golden == r.digest:
		golden = "match"
	default:
		golden = "MISMATCH, want " + o.golden
	}
	fmt.Fprintf(w, "  digest %s (golden: %s)\n", r.digest, golden)
	emitJSON(w, res)
}

// rate is count per second, or 0 when no time (or NaN) was measured.
func rate(count, seconds float64) float64 {
	if !(seconds > 0) {
		return 0
	}
	return count / seconds
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printMetrics(w io.Writer, m map[string]metric, n map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-30s %14.4f %-6s", k, m[k].Value, m[k].Unit)
		if c, ok := n[k]; ok {
			fmt.Fprintf(w, " n=%d", c)
		}
		fmt.Fprintln(w)
	}
}

// printClasses prints each named sub-latency at its median and, where
// enough samples exist, its tail percentile.
func printClasses(w io.Writer, r *record) {
	keys := make([]string, 0, len(r.classes))
	for k := range r.classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		xs := r.classes[k]
		fmt.Fprintf(w, "  %-30s %14.4f %-6s n=%d\n", k+"_p50", stats.Percentile(xs, 50), "ms", len(xs))
		if p := stats.TailPercentile(len(xs)); p > 50 {
			fmt.Fprintf(w, "  %-30s %14.4f %-6s n=%d\n", fmt.Sprintf("%s_p%g", k, p), stats.Percentile(xs, p), "ms", len(xs))
		}
	}
}

// printSpans prints, per span name, the call count, the total self time
// and the median call's duration.
func printSpans(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct {
		self float64
		durs []float64
	}
	by := make(map[string]*agg)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.self += float64(self[s.ID]) / 1e6
		a.durs = append(a.durs, float64(s.End-s.Start)/1e6)
	}
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-36s %8s %14s %12s %12s\n", "span", "calls", "self_ms", "p50_ms", "p90_ms")
	for _, k := range names {
		a := by[k]
		fmt.Fprintf(w, "  %-36s %8d %14.3f %12.3f %12.3f\n", k, len(a.durs), a.self,
			stats.Percentile(a.durs, 50), stats.Percentile(a.durs, 90))
	}
}
