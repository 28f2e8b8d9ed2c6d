// Command perfbench is the repository's benchmark. It runs Amber's real
// runtime in one process, N nodes meshed over TCP on the loopback interface,
// drives one workload from node 0, checks every result, and prints every
// metric with its unit. The last line of its output is one JSON object.
//
//	perfbench --workload invoke-remote --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced for half the time and traced for
// the other half, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"amber/internal/sor"
	"amber/internal/wire"
)

// spec is one workload's fixed shape.
type spec struct {
	nodes, procs int
	newRunner    func(seed int64) (runner, error)
	// groups are the latencies reported, each merging some sample classes.
	// The first is the headline op behind p50_us and tail_us.
	groups []group
}

// group names a reported latency (name_p50_us, name_p99_us) and the sample
// classes it merges.
type group struct {
	name    string
	classes []string
}

var specs = map[string]spec{
	"invoke-remote": {nodes: 2, procs: runtime.NumCPU(), newRunner: newInvokeRemote,
		groups: []group{{"invoke", []string{"Null", "Echo"}}, {"null", []string{"Null"}}, {"echo", []string{"Echo"}}}},
	"cached-reads":  {nodes: 3, procs: runtime.NumCPU(), newRunner: newCachedReads, groups: cachedGroups},
	"replica-reads": {nodes: 3, procs: runtime.NumCPU(), newRunner: newReplicaReads, groups: cachedGroups[:3]},
	"migrate-chase": {nodes: 1 + ringSize, procs: runtime.NumCPU(), newRunner: newMigrateChase,
		groups: []group{{"chase", []string{"chase"}}, {"move", []string{"move"}}, {"second", []string{"second"}}, {"round", []string{"round"}}}},
	"sor": {nodes: 2, procs: 1, newRunner: newSor,
		groups: []group{{"iter", []string{"iter"}}, {"solve", []string{"solve"}}}},
}

// cachedGroups are cached-reads' latencies; replica-reads, a closed loop,
// reports all but the generator lag.
var cachedGroups = []group{{"op", []string{"read_imm", "read_lease", "write"}}, {"read", []string{"read_imm", "read_lease"}},
	{"write", []string{"write"}}, {"load.gen_lag", []string{"load.gen_lag"}}}

const (
	setupReps   = 61                     // clusters built per run; setup_s is their median
	setupSettle = 5 * time.Millisecond   // pause between set-ups
	warmup      = 300 * time.Millisecond // before any measured window
	partLen     = time.Second            // one measured part (see measure)
	buildDir    = ".bench_build"
)

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds ≥ 1, --trace 0|1\n", names())
		os.Exit(2)
	}
	// A hung run must still end: fail well inside the caller's time limit.
	time.AfterFunc(time.Duration(*seconds)*3*time.Second+60*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired")
		os.Exit(3)
	})
	rep, err := execute(*workload, sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.ok() {
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for k := range specs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// snapshot is the process- and cluster-wide state at a window boundary.
type snapshot struct {
	at          time.Time
	msgs, bytes int64
	counters    map[string]int64
	mem         runtime.MemStats
	cpu         time.Duration
	gcCPU, all  float64
	gob         int64
}

var cpuMetrics = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

func takeSnapshot(cl *cluster) snapshot {
	s := snapshot{counters: cl.counterSums(), gob: wire.GobFallbacks()}
	s.msgs, s.bytes = cl.wireTotals()
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	metrics.Read(cpuMetrics)
	s.gcCPU, s.all = cpuMetrics[0].Value.Float64(), cpuMetrics[1].Value.Float64()
	s.at = time.Now()
	return s
}

// window is one measured stretch of a run: what the runner observed plus the
// system state before and after.
type window struct {
	out           *outcome
	dists         map[string]dist // per latency group, summarized when the window ends
	before, after snapshot
	queueMax      int // deepest scheduler run queue on any node, sampled
	waitingMax    int // most threads blocked on any node, sampled
}

// summarize computes the window's latency groups and drops its samples, so
// the harness keeps one part's samples at a time: a heap that grew with the
// run would space out garbage collections as it went and skew later parts.
func (w *window) summarize(groups []group) {
	w.dists = make(map[string]dist, len(groups))
	for _, g := range groups {
		var xs []float64
		for _, c := range g.classes {
			xs = append(xs, w.out.lat[c]...)
		}
		w.dists[g.name] = summarize(xs)
	}
	w.out.lat = nil
}

func (w *window) seconds() float64 { return w.after.at.Sub(w.before.at).Seconds() }

func (w *window) delta(name string) float64 {
	return float64(w.after.counters[name] - w.before.counters[name])
}

func (w *window) perOp(v float64) float64 { return ratio(v, float64(w.out.attempted)) }

func (w *window) opsPerSec() float64 { return ratio(float64(w.out.attempted), w.seconds()) }

// measure runs the runner for d in equal parts, snapshotting the system
// between them, and samples the schedulers meanwhile. It returns the whole
// window and its parts: end-to-end metrics are medians over the parts, so a
// burst of outside load on the host moves one part, not the result.
func measure(cl *cluster, rn runner, groups []group, d time.Duration, parts int, rec *recorder) (*window, []*window) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queueMax, waitingMax int
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, n := range cl.nodes {
				slots, overflow := n.Scheduler().QueueDepths()
				depth := overflow
				for _, q := range slots {
					depth += q
				}
				queueMax = max(queueMax, depth)
				waitingMax = max(waitingMax, n.Scheduler().Waiting())
			}
		}
	}()
	var ws []*window
	snap := takeSnapshot(cl)
	for i := 0; i < parts; i++ {
		w := &window{before: snap, out: rn.run(cl, time.Now().Add(d/time.Duration(parts)), rec)}
		snap = takeSnapshot(cl)
		w.after = snap
		w.summarize(groups)
		ws = append(ws, w)
	}
	close(stop)
	wg.Wait()
	total := &window{before: ws[0].before, after: snap, out: newOutcome(), queueMax: queueMax, waitingMax: waitingMax}
	for _, w := range ws {
		total.out.merge(w.out)
	}
	return total, ws
}

// execute performs one benchmark run and returns its report.
func execute(name string, sp spec, seed int64, d time.Duration, traced bool) (*report, error) {
	reg, err := newRegistry()
	if err != nil {
		return nil, err
	}
	if err := sor.RegisterAll(reg); err != nil {
		return nil, err
	}
	rn, err := sp.newRunner(seed)
	if err != nil {
		return nil, err
	}
	// Set-up: build the cluster and place the workload's objects, several
	// times; the last cluster is the one measured.
	var setups []float64
	var cl *cluster
	for i := 0; i < setupReps; i++ {
		if cl != nil {
			cl.close()
			// Let the closed cluster's goroutines wind down and collect
			// its garbage, so neither lands in the next set-up's time.
			time.Sleep(setupSettle)
			runtime.GC()
		}
		start := time.Now()
		if cl, err = newCluster(sp.nodes, sp.procs, reg, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := rn.place(cl); err != nil {
			cl.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep := &report{workload: name, spec: sp, setup: setups}
	warm := rn.run(cl, time.Now().Add(warmup), nil)
	rep.check(warm, nil)
	span := d
	if traced {
		span = d / 2
	}
	parts := max(1, int(span/partLen))
	rep.plain, rep.parts = measure(cl, rn, sp.groups, span, parts, nil)
	rep.check(rep.plain.out, rn.verify(cl))
	rep.census(cl)
	cl.close()
	if !traced {
		return rep, nil
	}

	// The traced half runs on a fresh cluster whose transports are tapped
	// from the start, so every message on every link is seen.
	rec := newRecorder()
	active.Store(rec)
	defer active.Store(nil)
	if cl, err = newCluster(sp.nodes, sp.procs, reg, rec); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer cl.close()
	if err := rn.place(cl); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	if mc, ok := rn.(*migrateChase); ok {
		if rep.coldChase, err = mc.coldChase(cl); err != nil {
			rep.fail(fmt.Errorf("cold chase: %w", err))
		}
	}
	rep.check(rn.run(cl, time.Now().Add(warmup), rec), nil)
	rep.traceFrom, rep.sentFrom = rec.now(), rec.sent()
	rep.traced, _ = measure(cl, rn, sp.groups, span, 1, rec)
	rep.traceTo, rep.sentTo = rec.now(), rec.sent()
	rep.check(rep.traced.out, rn.verify(cl))
	// Let trailing messages (oneway updates, probe answers) land before
	// checking that every request was answered.
	for deadline := time.Now().Add(2 * time.Second); rec.unmatched() > 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := rec.unmatched(); n > 0 {
		rep.fail(fmt.Errorf("traced run: %d requests never got a reply", n))
	}
	// The report reads this prefix of the store; late deliveries on closing
	// links may still append past it.
	rec.mu.Lock()
	rep.spans, rep.dropped = rec.spans[:len(rec.spans):len(rec.spans)], rec.dropped
	unfifo := rec.unfifo
	rec.mu.Unlock()
	if unfifo > 0 {
		rep.fail(fmt.Errorf("traced run: %d deliveries did not match their link's FIFO", unfifo))
	}
	rep.wireNs[0], rep.wireNs[1] = timeWire(rn.argVectors())
	if sd, ok := rn.(*sorSolve); ok {
		rep.seqSolve = sd.seqSolve.Seconds()
	}
	if err := os.MkdirAll(buildDir, 0o755); err == nil {
		if err := rec.dump(filepath.Join(buildDir, "spans-"+name+".tsv")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	return rep, nil
}

// timeWire times the codec on the workload's own argument vectors: encode is
// wire.MarshalArgs plus returning the buffer, decode is
// wire.UnmarshalArgsScratch plus wire.PutArgs. Returns ns per vector.
func timeWire(vecs [][]any) (enc, dec float64) {
	const reps = 20000
	var encoded [][]byte
	start := time.Now()
	for i := 0; i < reps; i++ {
		for _, v := range vecs {
			b, err := wire.MarshalArgs(v)
			if err != nil {
				return 0, 0
			}
			if i == 0 {
				encoded = append(encoded, append([]byte(nil), b...))
			}
			wire.PutBuf(b)
		}
	}
	enc = float64(time.Since(start).Nanoseconds()) / float64(reps*len(vecs))
	start = time.Now()
	for i := 0; i < reps; i++ {
		for _, b := range encoded {
			vs, err := wire.UnmarshalArgsScratch(b)
			if err != nil {
				return enc, 0
			}
			wire.PutArgs(vs)
		}
	}
	dec = float64(time.Since(start).Nanoseconds()) / float64(reps*len(encoded))
	return enc, dec
}

// result is the machine-readable last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSON(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// census is the objspace state at the end of the untraced window.
func (r *report) census(cl *cluster) {
	for _, n := range cl.nodes {
		st := n.SpaceStats()
		r.space.descriptors += st["descriptors"]
		r.space.replicas += st["replicas"]
		r.space.leases += st["leases"]
		r.space.tombstones += int64(n.Objects()["forwarded"])
	}
}
