package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs/analyze"
)

// spanNames are the program's own spans the traced run aggregates.
var spanNames = []string{
	"serve.request", "serve.batch", "core.transfer", "skc.extract.patch",
	"skc.fewshot_ft", "akb.search", "cluster.attempt", "job.commit",
}

// layers computes the per-layer metrics of the traced pass pt, the
// runtime costs of the untraced pass pu, and the ledger: the layers on the
// blocking path must add up to the traced end-to-end p50 within the
// documented slack. It returns the metrics and every check that failed.
func (b *bench) layers(pu, pt *pass, ou, ot *outcome, st tally) (map[string]float64, []string) {
	m := map[string]float64{}
	led := pt.led
	tr, err := analyze.Load(bytes.NewReader(b.spans.prefix(pt.traceLen)))
	if err != nil {
		return m, []string{fmt.Sprintf("traced run: %v", err)}
	}
	spans := map[string]analyze.NameStat{}
	for _, s := range tr.Aggregate() {
		spans[s.Name] = s
	}

	m["error_rate"] = ratio(float64(st.failed), float64(st.attempted))
	m["latency_p90_ms"] = sliceMedian(ou.lat, 0.90)
	m["latency_p99_ms"] = quantile(flatten(ou.lat), 0.99)
	m["gen.lateness_p99_ms"] = quantile(ot.lateness, 0.99)

	m["eval.datasets_s"] = b.datasets.Seconds()
	m["eval.upstream_s"] = b.upstream.Seconds()
	m["eval.patches_s"] = b.patches.Seconds()
	m["skc.extract_patch_ms"] = spans["skc.extract.patch"].P50US / 1e3
	m["skc.extract_patch_ms.count"] = float64(spans["skc.extract.patch"].Count)
	m["skc.fewshot_ft_ms"] = spans["skc.fewshot_ft"].P50US / 1e3
	m["akb.search_ms"] = spans["akb.search"].P50US / 1e3
	m["akb.oracle_calls"] = ratio(float64(pt.counter("akb.oracle_calls")), float64(pt.counter("core.transfers")))

	// core: the wrapped Transferer.
	var xfer []float64
	for _, t := range led.transfers {
		if !t.end.After(pt.winEnd) {
			xfer = append(xfer, ms(t.end.Sub(t.start)))
		}
	}
	m["core.transfer_ms"] = quantile(xfer, 0.50)
	m["core.transfer_ms.p90"] = quantile(xfer, 0.90)
	m["core.transfers"] = float64(len(xfer))

	// serve registry, HTTP and batcher: the wrapped Resolvers, joined to
	// the client's requests by trace id. The open-loop workloads take the
	// open-loop phase, the one their latency metrics come from.
	front := map[string]resolveRec{}  // the resolver the HTTP server fronts
	answer := map[string]resolveRec{} // the registry that answered first
	var coldWait []float64
	var rows []reqLedger
	for _, r := range led.resolves {
		if r.end.After(pt.winEnd) || r.err {
			continue
		}
		if r.cold {
			coldWait = append(coldWait, us(r.end.Sub(r.start)-transferOverlap(led.transfers, r)))
		}
		switch {
		case r.warm || r.start.Before(pt.winStart):
		case ot.router != nil && r.backend == 0:
			front[r.trace] = r
		case b.workload == "bulk-job":
			d := us(r.end.Sub(r.start))
			rows = append(rows, reqLedger{lat: d, resolve: d, wait: d - us(r.fwd), fwd: us(r.fwd)})
		default:
			if prev, ok := answer[r.trace]; !ok || r.end.Before(prev.end) {
				answer[r.trace] = r
			}
		}
	}
	if ot.router == nil {
		front = answer
	}
	for _, c := range ot.recs {
		f, okf := front[c.trace]
		a, oka := answer[c.trace]
		if !okf || !oka || c.trace == "" || (c.phase != phaseOpen && c.phase != phaseCold) {
			continue
		}
		rt, res := us(c.rt), us(a.end.Sub(a.start))
		e := reqLedger{lat: us(c.lat), self: rt - us(f.end.Sub(f.start)), resolve: res, cold: a.cold}
		if a.cold {
			e.transfer = us(transferOverlap(led.transfers, a))
			e.coldWait = res - e.transfer
		} else {
			e.wait, e.fwd = res-us(a.fwd), us(a.fwd)
		}
		if ot.router != nil {
			e.hop = rt - res
		}
		rows = append(rows, e)
	}
	warm := func(f func(reqLedger) float64) []float64 {
		var xs []float64
		for _, e := range rows {
			if !e.cold {
				xs = append(xs, f(e))
			}
		}
		return xs
	}
	m["serve.transfers_per_cold_key"] = ratio(float64(ot.transfers), float64(ot.coldKeys))
	m["serve.cold_wait_ms"] = quantile(coldWait, 0.50) / 1e3
	m["serve.resolve_us"] = quantile(warm(func(e reqLedger) float64 { return e.resolve }), 0.50)
	m["serve.http_self_us"] = 0
	if b.workload != "bulk-job" {
		m["serve.http_self_us"] = quantile(warm(func(e reqLedger) float64 { return e.self }), 0.50)
	}
	m["serve.wait_us"] = quantile(warm(func(e reqLedger) float64 { return e.wait }), 0.50)
	m["serve.batches"] = float64(pt.counter("serve.batches"))
	m["serve.batched_predicts"] = float64(pt.counter("serve.batched_predicts"))
	m["serve.batch_size_mean"] = pt.histMean("serve.batch_size")

	// model: the wrapped BatchPredictor.
	var batchUS []float64
	var busy time.Duration
	batchRows := 0
	for _, bt := range led.batches {
		batchUS = append(batchUS, us(bt.dur))
		busy += bt.dur
		batchRows += bt.size
	}
	m["model.forward_us"] = quantile(batchUS, 0.50)
	m["model.forward_us_per_row"] = ratio(us(busy), float64(batchRows))
	m["model.busy_share"] = ratio(busy.Seconds(), pt.window().Seconds())

	// cluster: Router.Stats over the window and the wrapped backends.
	m["cluster.hop_us"] = quantile(warm(func(e reqLedger) float64 { return e.hop }), 0.50)
	if r := ot.router; r != nil {
		var calls int64
		for _, be := range r.Backends {
			calls += be.Requests
		}
		m["cluster.hedge_rate"] = ratio(float64(r.Hedges), float64(r.Requests))
		m["cluster.backend_calls_per_request"] = ratio(float64(calls), float64(r.Requests))
		m["cluster.failovers"] = float64(r.Failovers)
		m["cluster.ejections"] = float64(r.Ejections)
	} else {
		for _, k := range []string{"cluster.hedge_rate", "cluster.backend_calls_per_request", "cluster.failovers", "cluster.ejections"} {
			m[k] = 0
		}
	}

	// jobs: timed Engine.Plan, the wrapped Engine.Res and job.commit spans.
	m["jobs.plan_ms"] = quantile(ot.planMs, 0.50)
	m["jobs.row_us"] = 0
	if b.workload == "bulk-job" {
		m["jobs.row_us"] = m["serve.resolve_us"]
	}
	m["jobs.commit_ms"] = spans["job.commit"].P50US / 1e3
	m["jobs.retries"] = float64(ot.retries)
	m["jobs.row_failures"] = float64(ot.rowFails)

	// runtime: the untraced pass, so tracing's own allocations stay out.
	m["runtime.alloc_bytes_per_op"] = ratio(float64(pu.rt1.TotalAllocBytes-pu.rt0.TotalAllocBytes), float64(len(ou.recs)))
	m["runtime.gc_cycles"] = float64(pu.rt1.GCCycles - pu.rt0.GCCycles)

	// The ledger: the requests around the end-to-end median, split along
	// their blocking path. What the layers do not cover is unattributed.
	band := medianBand(rows)
	var e2e, parts float64
	var split string
	for _, e := range band {
		e2e += e.lat / float64(len(band))
	}
	part := func(name string, f func(reqLedger) float64) {
		var v float64
		for _, e := range band {
			v += f(e) / float64(len(band))
		}
		parts += v
		split += fmt.Sprintf(" %s %.0fus", name, v)
	}
	switch b.workload {
	case "cold-start":
		part("core.transfer", func(e reqLedger) float64 { return e.transfer })
		part("serve.cold_wait", func(e reqLedger) float64 { return e.coldWait })
	case "warm-serve":
		part("serve.http_self", func(e reqLedger) float64 { return e.self })
	case "routed":
		part("cluster.hop", func(e reqLedger) float64 { return e.hop })
	}
	if b.workload != "cold-start" {
		// A job's rows overlap, so a bulk job's wall time has no additive
		// ledger; its row has one: the engine's resolve = wait + forward.
		part("serve.wait", func(e reqLedger) float64 { return e.wait })
		part("model.forward", func(e reqLedger) float64 { return e.fwd })
	}
	m["ledger.unattributed_share"] = ratio(e2e-parts, e2e)
	base := sliceMedian(ou.lat, 0.50)
	m["ledger.tracing_overhead"] = ratio(sliceMedian(ot.lat, 0.50)-base, base)

	var bad []string
	if s := m["ledger.unattributed_share"]; math.Abs(s) > b.doc.ReconcileSlack {
		bad = append(bad, fmt.Sprintf("ledger does not reconcile: %.1f%% of the end-to-end p50 is unattributed, slack %.0f%%",
			100*s, 100*b.doc.ReconcileSlack))
	}
	// A batch whose requests were all shed (a cancelled hedge) runs no
	// forward, so without shedding every batch must ride the batched one.
	// The pass has closed, so every batch it formed has finished.
	grown := func(name string) int64 { return pt.mClosed.Counters[name] - pt.m0.Counters[name] }
	batches, batched := grown("serve.batches"), grown("serve.batched_predicts")
	if led.serial != 0 || batched != int64(len(led.batches)) || (grown("serve.shed") == 0 && batches != batched) {
		bad = append(bad, fmt.Sprintf("batched path not taken: %d batches, %d batched predicts, %d batched and %d serial forwards",
			batches, batched, len(led.batches), led.serial))
	}

	fmt.Printf("span aggregates (traced pass, set-up included):\n")
	fmt.Printf("  %-18s %8s %12s %12s %12s\n", "span", "count", "p50_us", "p95_us", "self_us")
	for _, name := range spanNames {
		if s, ok := spans[name]; ok {
			fmt.Printf("  %-18s %8d %12.0f %12.0f %12d\n", name, s.Count, s.P50US, s.P95US, s.SelfUS)
		}
	}
	fmt.Printf("ledger of the %d requests around the end-to-end p50: %.0fus =%s + unattributed %.0fus\n",
		len(band), e2e, split, e2e-parts)
	return m, bad
}

// transferOverlap is how much of a cold resolve call the Transfer it waited
// on covers: the overlap with the call of the latest Transfer of its key
// that ended inside the call.
func transferOverlap(ts []transferRec, r resolveRec) time.Duration {
	var best time.Duration
	for _, t := range ts {
		if t.key != r.key || t.end.Before(r.start) || t.end.After(r.end) {
			continue
		}
		s := t.start
		if s.Before(r.start) {
			s = r.start
		}
		if d := t.end.Sub(s); d > best {
			best = d
		}
	}
	return best
}

func (b *bench) printLayers(m map[string]float64) {
	fmt.Println("per-layer metrics:")
	for _, k := range sortedKeys(m) {
		unit := ""
		for _, d := range b.doc.Metrics {
			if d.Name == k {
				unit = d.Unit
			}
		}
		fmt.Printf("  %-36s %14.4f %s\n", k, m[k], unit)
	}
}

// reqLedger is one request of the traced pass split along its blocking
// path, in µs: lat from due time (or send), rt the client round trip, self
// rt minus the fronted resolver, hop rt minus the answering backend
// resolver, resolve the answering registry's time, split into wait and the
// forward of its batch, or for a cold call into the Transfer it waited on
// and the rest.
type reqLedger struct {
	lat, self, hop, resolve float64
	wait, fwd               float64
	cold                    bool
	transfer, coldWait      float64
}

// medianBand returns the requests whose latency lies between the 45th and
// 55th percentile: the ledger of "the median request".
func medianBand(rows []reqLedger) []reqLedger {
	if len(rows) == 0 {
		return nil
	}
	sorted := append([]reqLedger(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].lat < sorted[j].lat })
	lo, hi := len(sorted)*45/100, len(sorted)*55/100+1
	if hi > len(sorted) {
		hi = len(sorted)
	}
	return sorted[lo:hi]
}
