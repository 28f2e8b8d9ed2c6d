package main

import (
	"fmt"
	"io"
	"sort"

	"amber/internal/transport"
)

// report gathers one run's observations and turns them into metrics.
type report struct {
	workload string
	spec     spec
	setup    []float64 // seconds per cluster set-up

	attempted int64
	failed    int64
	errs      []string

	plain  *window   // untraced
	parts  []*window // plain, in parts
	traced *window   // nil unless --trace 1

	spans              []span   // the traced run's spans
	dropped            int64    // spans over the store's limit
	traceFrom, traceTo int64    // the traced window, in recorder time
	sentFrom, sentTo   [6]int64 // messages sent by kind at its edges
	wireNs             [2]float64
	seqSolve           float64
	coldChase          float64 // messages of one first reference down fresh links
	space              struct{ descriptors, replicas, leases, tombstones int64 }
}

// check folds a runner outcome and an end-of-run check into the verdict.
func (r *report) check(o *outcome, verr error) {
	r.attempted += o.attempted
	r.failed += o.failed
	if o.firstErr != nil {
		r.errs = append(r.errs, o.firstErr.Error())
	}
	if verr != nil {
		r.fail(verr)
	}
}

// ok reports whether every operation and every check succeeded.
func (r *report) ok() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *report) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err.Error())
}

// row is one printed metric: value, unit, and how it was sampled.
type row struct {
	name  string
	value float64
	unit  string
	note  string
}

func distNote(d dist) string {
	switch d.tailP {
	case 0:
		return "n=0"
	case 100:
		return fmt.Sprintf("n=%d, tail is the max", d.n)
	}
	return fmt.Sprintf("n=%d, tail is p%d", d.n, d.tailP)
}

// overParts returns the median over the untraced parts of f.
func (r *report) overParts(f func(w *window) float64) float64 {
	var xs []float64
	for _, w := range r.parts {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// group is the median over the parts of one latency group's p50 and tail,
// with a note giving the samples behind them.
func (r *report) group(name string) (p50, tail float64, note string) {
	p50 = r.overParts(func(w *window) float64 { return w.dists[name].p50 })
	tail = r.overParts(func(w *window) float64 { return w.dists[name].tail })
	n := 0
	for _, w := range r.parts {
		n += w.dists[name].n
	}
	return p50, tail, fmt.Sprintf("median of %d parts, %d samples; first part %s", len(r.parts), n, distNote(r.parts[0].dists[name]))
}

// endToEnd computes the metrics BENCHMARK.json lists as end_to_end: each is
// the median over the untraced window's parts of the value in that part.
func (r *report) endToEnd() []row {
	p50, tail, note := r.group(r.spec.groups[0].name)
	parts := fmt.Sprintf("median of %d parts of %.3gs", len(r.parts), r.parts[0].seconds())
	perOp := func(f func(w *window) float64) float64 {
		return r.overParts(func(w *window) float64 { return w.perOp(f(w)) })
	}
	return []row{
		{"setup_s", median(r.setup), "s", fmt.Sprintf("median of %d set-ups", len(r.setup))},
		{"ops_per_s", r.overParts((*window).opsPerSec), "1/s", fmt.Sprintf("%s; %d ops in all", parts, r.plain.out.attempted)},
		{"p50_us", p50, "us", note},
		{"tail_us", tail, "us", note},
		{"msgs_per_op", perOp(func(w *window) float64 { return float64(w.after.msgs - w.before.msgs) }), "msg/op", parts + "; transport Stats()"},
		{"wire_bytes_per_op", perOp(func(w *window) float64 { return float64(w.after.bytes - w.before.bytes) }), "B/op", parts + "; transport Stats()"},
		{"alloc_bytes_per_op", perOp(func(w *window) float64 { return float64(w.after.mem.TotalAlloc - w.before.mem.TotalAlloc) }), "B/op", parts + "; runtime.MemStats"},
	}
}

// detail is every latency group of the workload under the names the
// workload descriptions use (invoke_p99_us, chase_p50_us, solve_s...).
func (r *report) detail() []row {
	var rows []row
	for _, g := range r.spec.groups {
		p50, tail, note := r.group(g.name)
		if g.name == "solve" {
			rows = append(rows, row{"solve_s", p50 / 1e6, "s", note})
			continue
		}
		tailName := g.name + "_tail_us"
		if r.parts[0].dists[g.name].tailP == 99 {
			tailName = g.name + "_p99_us"
		}
		rows = append(rows, row{g.name + "_p50_us", p50, "us", note}, row{tailName, tail, "us", note})
	}
	return append(rows, row{"failed_frac", ratio(float64(r.failed), float64(r.attempted)), "frac",
		fmt.Sprintf("%d of %d", r.failed, r.attempted)})
}

func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s: %d nodes × %d procs over loopback TCP\n", r.workload, r.spec.nodes, r.spec.procs)
	for _, e := range r.errs {
		fmt.Fprintln(out, "FAILED:", e)
	}
	res := result{Correct: r.ok(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	var rows []row
	if r.traced == nil {
		rows = r.endToEnd()
		printRows(out, "end to end (untraced)", rows)
		printRows(out, "workload detail", r.detail())
		fmt.Fprint(out, "  p50_us/tail_us by part:")
		for _, w := range r.parts {
			d := w.dists[r.spec.groups[0].name]
			fmt.Fprintf(out, " %.4g/%.4g", d.p50, d.tail)
		}
		fmt.Fprintln(out)
	} else {
		r.printJourney(out)
		rows = r.perLayer()
		printRows(out, "per layer", rows)
	}
	for _, m := range rows {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	writeJSON(res)
}

func printRows(out io.Writer, title string, rows []row) {
	fmt.Fprintf(out, "-- %s\n", title)
	for _, m := range rows {
		fmt.Fprintf(out, "  %-40s %14.6g %-7s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// ---------------------------------------------------------------- per layer

// journey is one traced invocation's boundaries, in recorder time.
type journey struct {
	inv          *span
	firstReq     *span   // first request Send
	reqTransit   []*span // each request hop, Send entry → handler entry
	exec         *span
	replySend    *span
	replyTransit *span
}

// legs splits a journey into contiguous named stretches. The core stretches
// are the core layer's own; the transport stretches are the request and
// reply in flight. Forwarding hops leave gaps, which stay unattributed.
func (j *journey) legs() (map[string]float64, bool) {
	if j.inv == nil || j.firstReq == nil || j.exec == nil || j.replySend == nil || j.replyTransit == nil || len(j.reqTransit) == 0 {
		return nil, false
	}
	last := j.reqTransit[len(j.reqTransit)-1]
	l := map[string]float64{
		"core.pre_send":      float64(j.reqTransit[0].start - j.inv.start),
		"transport.request":  0,
		"core.pre_exec":      float64(j.exec.start - last.end),
		"core.exec":          float64(j.exec.end - j.exec.start),
		"core.post_exec":     float64(j.replyTransit.start - j.exec.end),
		"transport.reply":    float64(j.replyTransit.end - j.replyTransit.start),
		"core.wake":          float64(j.inv.end - j.replyTransit.end),
		"core.forward (gap)": 0,
	}
	for i, t := range j.reqTransit {
		l["transport.request"] += float64(t.end - t.start)
		if i > 0 {
			l["core.forward (gap)"] += float64(t.start - j.reqTransit[i-1].end)
		}
	}
	for k, v := range l {
		if v < 0 {
			return nil, false // the boundaries are out of causal order
		}
		l[k] = v / 1e3
	}
	return l, true
}

var legOrder = []string{"core.pre_send", "transport.request", "core.pre_exec", "core.exec", "core.post_exec", "transport.reply", "core.wake"}

// journeys groups the traced window's spans by operation.
func (r *report) journeys() map[uint64]*journey {
	js := map[uint64]*journey{}
	get := func(op uint64) *journey {
		j := js[op]
		if j == nil {
			j = &journey{}
			js[op] = j
		}
		return j
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.op == 0 || s.start < r.traceFrom || s.start > r.traceTo {
			continue
		}
		switch {
		case s.name == spInvoke:
			get(s.op).inv = s
		case s.name == spExec:
			get(s.op).exec = s
		case s.name == spSend && s.kind == kRequest:
			if j := get(s.op); j.firstReq == nil || s.start < j.firstReq.start {
				j.firstReq = s
			}
		case s.name == spSend && s.kind == kReply:
			get(s.op).replySend = s
		case s.name == spTransit && s.kind == kRequest:
			j := get(s.op)
			j.reqTransit = append(j.reqTransit, s)
		case s.name == spTransit && s.kind == kReply:
			get(s.op).replyTransit = s
		}
	}
	for _, j := range js {
		sort.Slice(j.reqTransit, func(a, b int) bool { return j.reqTransit[a].start < j.reqTransit[b].start })
	}
	return js
}

// journeyStats are the means the per-layer table and metrics need.
type journeyStats struct {
	single       int                // complete one-hop journeys
	legs         map[string]float64 // mean µs per leg over them
	invoke       float64            // mean invoke span over them, µs
	remote       int                // journeys that sent a request
	unattributed float64            // share of remote invoke time no leg covers
	fenceWait    float64            // mean post_exec of writes, µs
	issue        float64            // mean time inside AsyncInvoke, µs
}

func (r *report) journeyStats() journeyStats {
	st := journeyStats{legs: map[string]float64{}}
	var covered, total float64
	var fence []float64
	var issue []float64
	for i := range r.spans {
		s := &r.spans[i]
		if s.name == spIssue && s.start >= r.traceFrom && s.start <= r.traceTo {
			issue = append(issue, float64(s.end-s.start)/1e3)
		}
	}
	for op, j := range r.journeys() {
		if j.inv == nil || j.firstReq == nil {
			continue
		}
		inv := float64(j.inv.end-j.inv.start) / 1e3
		st.remote++
		total += inv
		l, ok := j.legs()
		if !ok {
			continue
		}
		for _, k := range legOrder {
			covered += l[k]
		}
		if opClass(op) == clWrite {
			fence = append(fence, l["core.post_exec"])
		}
		if len(j.reqTransit) != 1 {
			continue
		}
		st.single++
		st.invoke += inv
		for k, v := range l {
			st.legs[k] += v
		}
	}
	if st.single > 0 {
		st.invoke /= float64(st.single)
		for k := range st.legs {
			st.legs[k] /= float64(st.single)
		}
	}
	if total > 0 {
		st.unattributed = 1 - covered/total
	}
	st.fenceWait, st.issue = mean(fence), mean(issue)
	return st
}

func (r *report) printJourney(out io.Writer) {
	st := r.journeyStats()
	fmt.Fprintf(out, "-- self time per layer, one-hop remote invocations (traced, %d journeys of %d remote)\n", st.single, st.remote)
	if st.single == 0 {
		fmt.Fprintln(out, "  (no one-hop remote invocations from the benchmark in this workload)")
		return
	}
	sum := 0.0
	for _, k := range legOrder {
		v := st.legs[k]
		sum += v
		fmt.Fprintf(out, "  %-22s %10.2f us %6.1f%%\n", k, v, 100*ratio(v, st.invoke))
	}
	fmt.Fprintf(out, "  %-22s %10.2f us (sum of the above %.2f us)\n", "core.invoke", st.invoke, sum)
}

// transportStats are the traced window's per-message means and counts.
type transportStats struct {
	send, transit, handler float64 // mean µs
	inMoves                float64 // messages sent while a MoveTo was in progress
	chaseMsgs              map[uint64][]float64
}

func (r *report) transportStats() transportStats {
	st := transportStats{chaseMsgs: map[uint64][]float64{}}
	var send, transit, handler []float64
	var moves, sends []*span
	for i := range r.spans {
		s := &r.spans[i]
		if s.start < r.traceFrom || s.start > r.traceTo {
			continue
		}
		d := float64(s.end-s.start) / 1e3
		switch s.name {
		case spSend:
			send = append(send, d)
			sends = append(sends, s)
		case spTransit:
			transit = append(transit, d)
		case spHandler:
			handler = append(handler, d)
		case spMove:
			moves = append(moves, s)
		}
	}
	st.send, st.transit, st.handler = mean(send), mean(transit), mean(handler)
	// Messages inside each MoveTo, and from each chase's start to the next
	// reference's start (the chase's trailing oneways and probes included).
	// migrate-chase has one client, so these windows do not overlap.
	sort.Slice(sends, func(a, b int) bool { return sends[a].start < sends[b].start })
	count := func(from, to int64) float64 {
		lo := sort.Search(len(sends), func(i int) bool { return sends[i].start >= from })
		hi := sort.Search(len(sends), func(i int) bool { return sends[i].start >= to })
		return float64(hi - lo)
	}
	for _, m := range moves {
		st.inMoves += count(m.start, m.end)
	}
	var refs []*span
	for i := range r.spans {
		s := &r.spans[i]
		if s.name == spInvoke && s.start >= r.traceFrom && s.start <= r.traceTo {
			if c := opClass(s.op); c >= clChase1 && c <= clSecond {
				refs = append(refs, s)
			}
		}
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].start < refs[b].start })
	for i, s := range refs {
		if c := opClass(s.op); c != clSecond && i+1 < len(refs) {
			st.chaseMsgs[c] = append(st.chaseMsgs[c], count(s.start, refs[i+1].start))
		}
	}
	return st
}

// perLayer computes the metrics BENCHMARK.json lists as per_layer. Counter
// metrics come from the untraced half; span metrics from the traced half.
func (r *report) perLayer() []row {
	w, t := r.plain, r.traced
	o := w.out
	kop := func(v float64) float64 { return 1000 * w.perOp(v) }
	js := r.journeyStats()
	ts := r.transportStats()
	tops := float64(t.out.attempted)
	hits, misses := w.delta("node0.hint_hits"), w.delta("node0.hint_misses")
	leaseReads, immReads := o.count["read_lease"], o.count["read_imm"]
	writes := o.count["write"]
	_, lag, lagNote := r.group("load.gen_lag")
	solve, _, _ := r.group("solve")
	iter, _, _ := r.group("iter")
	gc := ratio(w.after.gcCPU-w.before.gcCPU, w.after.all-w.before.all)
	msgsKind := func(k transport.Kind) float64 { return ratio(float64(r.sentTo[k]-r.sentFrom[k]), tops) }
	rows := []row{
		{"core.invoke_us", js.invoke, "us", fmt.Sprintf("mean of %d one-hop journeys", js.single)},
		{"core.pre_send_us", js.legs["core.pre_send"], "us", "Invoke entry → request Send"},
		{"core.pre_exec_us", js.legs["core.pre_exec"], "us", "request delivered → method body"},
		{"core.exec_us", js.legs["core.exec"], "us", "method body"},
		{"core.post_exec_us", js.legs["core.post_exec"], "us", "method return → reply Send"},
		{"core.wake_us", js.legs["core.wake"], "us", "reply delivered → Invoke returns"},
		{"core.unattributed_frac", js.unattributed, "frac", fmt.Sprintf("over %d remote journeys", js.remote)},
		{"core.forwards_per_op", w.perOp(w.delta("core.forwards")), "count", ""},
		{"core.hint_hit_frac", ratio(hits, hits+misses), "frac", "node 0"},
		{"core.routing_restarts_per_kop", kop(w.delta("core.routing_restarts")), "count", ""},
		{"core.move_msgs", ratio(ts.inMoves, t.out.count["move"]), "msg", "per MoveTo, traced"},
		{"core.chase_msgs_k1", mean(ts.chaseMsgs[clChase1]), "msg", "first reference, 1 hop stale"},
		{"core.chase_msgs_k2", mean(ts.chaseMsgs[clChase2]), "msg", "first reference, 2 hops stale"},
		{"core.chase_msgs_k3", mean(ts.chaseMsgs[clChase3]), "msg", "first reference, 3 hops stale"},
		{"core.cold_chase_msgs_k3", r.coldChase, "msg", "first reference, 3 hops, links never probed"},
		{"core.lease_hit_frac", ratio(w.delta("node0.lease_hits"), leaseReads), "frac", "node 0 lease hits / counter reads"},
		{"core.replica_hit_frac", ratio(w.delta("node0.replica_hits"), immReads), "frac", "node 0 replica hits / immutable reads"},
		{"core.lease_revokes_per_write", ratio(w.delta("core.lease_invalidations_sent"), writes), "count", ""},
		{"core.fence_wait_us", js.fenceWait, "us", "owner post_exec of writes, traced"},
		{"core.async_issue_us", js.issue, "us", "inside AsyncInvoke, traced"},
		{"core.async_backpressure_waits_per_kop", kop(w.delta("core.async_backpressure_waits")), "count", ""},
		{"rpc.probes_per_op", msgsKind(kPing) + msgsKind(kPong), "msg/op", "ping + pong, traced"},
		{"rpc.retries_per_kop", kop(w.delta("rpc.rpc_retries") + w.delta("core.async_retries")), "count", ""},
		{"rpc.timeouts", w.delta("rpc.rpc_async_timeouts") + w.delta("core.anomalies_deadline"), "count", ""},
		{"transport.send_us", ts.send, "us", "inside Send, traced"},
		{"transport.transit_us", ts.transit, "us", "Send entry → handler entry, traced"},
		{"transport.handler_us", ts.handler, "us", "handler holding the delivery goroutine, traced"},
		{"transport.msgs_per_op.request", msgsKind(kRequest), "msg/op", "traced"},
		{"transport.msgs_per_op.reply", msgsKind(kReply), "msg/op", "traced"},
		{"transport.msgs_per_op.oneway", msgsKind(kOneway), "msg/op", "traced"},
		{"transport.msgs_per_op.ping", msgsKind(kPing), "msg/op", "traced"},
		{"transport.msgs_per_op.pong", msgsKind(kPong), "msg/op", "traced"},
		{"transport.bytes_per_msg", ratio(float64(w.after.bytes-w.before.bytes), float64(w.after.msgs-w.before.msgs)), "B", ""},
		{"wire.encode_ns", r.wireNs[0], "ns", "MarshalArgs on the workload's argument vectors"},
		{"wire.decode_ns", r.wireNs[1], "ns", "UnmarshalArgsScratch + PutArgs"},
		{"wire.gob_fallbacks", float64(w.after.gob - w.before.gob), "count", ""},
		{"objspace.descriptors", float64(r.space.descriptors), "count", "all nodes, end of run"},
		{"objspace.tombstones", float64(r.space.tombstones), "count", "forwarded descriptors"},
		{"objspace.replicas", float64(r.space.replicas), "count", "replicas and leases"},
		{"objspace.leases", float64(r.space.leases), "count", ""},
		{"objspace.shard_contention_per_kop", kop(w.delta("objspace.hint_lock_contended") + w.delta("objspace.move_lock_contended")), "count", ""},
		{"sched.steals_per_kop", kop(w.delta("sched.steals")), "count", ""},
		{"sched.queue_depth_max", float64(w.queueMax), "count", "sampled every 2ms"},
		{"sched.waiting_max", float64(w.waitingMax), "count", "sampled every 2ms"},
		{"sor.iters", ratio(o.count["iters"], o.count["solve"]), "count", "per solve"},
		{"sor.iter_ms", iter / 1e3, "ms", "median over parts"},
		{"sor.seq_solve_s", r.seqSolve, "s", "single-threaded sor.SolveSequential"},
		{"sor.speedup", ratio(r.seqSolve, solve/1e6), "x", "sequential ÷ distributed solve"},
		{"runtime.mallocs_per_op", w.perOp(float64(w.after.mem.Mallocs - w.before.mem.Mallocs)), "count", ""},
		{"runtime.gc_cpu_frac", gc, "frac", ""},
		{"runtime.cpu_us_per_op", w.perOp(us(w.after.cpu - w.before.cpu)), "us", "getrusage user+sys"},
		{"load.gen_lag_p99_us", lag, "us", lagNote},
		{"trace.overhead_frac", 1 - ratio(t.opsPerSec(), w.opsPerSec()), "frac", "traced vs untraced ops_per_s"},
	}
	if r.dropped > 0 {
		rows[0].note += fmt.Sprintf("; %d spans over the store's limit were dropped", r.dropped)
	}
	return rows
}
