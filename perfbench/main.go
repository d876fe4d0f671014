// Command perfbench is the repository's end-to-end benchmark: it runs one
// workload of closed-loop KVStore callers against fargo cores on loopback
// TCP, checks every result, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on its last line.
// README.md in this directory explains the workloads and the metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"fargo/internal/flight"
)

// config is one benchmark run.
type config struct {
	spec    spec
	seed    int64
	window  time.Duration
	traced  bool
	setups  int // set-ups timed; setup_s is their median
	workDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: colocated_kv, remote_kv, relocate_kv or relocate_race")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 0, "length of the measured window in seconds (required; BENCHMARK.json's run_seconds)")
	traceMode := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()
	sp, ok := specByName(*workload)
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (colocated_kv|remote_kv|relocate_kv|relocate_race), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{
		spec:    sp,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *traceMode == 1,
		setups:  5,
		workDir: ".bench_build",
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it, checks it and tears it down. A
// failed correctness check yields a result with Correct false; an error
// means the run could not be measured at all.
func run(cfg config, log io.Writer) (*result, error) {
	sp := cfg.spec
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench workload=%s seed=%d window=%s trace=%v gomaxprocs=%d ncpu=%d %s\n",
		sp.name, cfg.seed, cfg.window, cfg.traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(log, "network: loopback TCP between cores of one process, not a real link\n")
	hostRefs := hostRef(sp.callers, 3)

	in := newInputs(cfg.seed)
	var setupTimes []float64
	var e *env
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		var err error
		e, err = setUp(sp, cfg.seed, in, cfg.workDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			e.close()
		}
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var checkErr error
	if cfg.traced {
		var err error
		if checkErr, err = measureTraced(cfg, e, res, log); err != nil {
			return nil, err
		}
	} else {
		res.add("setup_s", median(setupTimes), "s")
		checkErr = measure(cfg, e, res, log)
	}
	hostRefs = append(hostRefs, hostRef(sp.callers, 3)...)
	if cfg.traced {
		res.add("host.ref_ms", median(hostRefs), "ms")
	}
	fmt.Fprintf(log, "host.ref_ms: %s (before set-up, then after teardown)\n", fmtList(hostRefs))
	fmt.Fprintf(log, "failures: %d of %d attempted operations failed (never retried)\n", res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if checkErr != nil {
		res.Correct = false
		fmt.Fprintf(log, "CHECK FAILED: %v\n", checkErr)
	}
	return res, nil
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// count books a window's invocations and moves as attempted and failed.
func (r *result) count(w *window) {
	r.Attempted += int64(len(w.ops) + len(w.moves) + len(w.after))
	r.Failed += w.failedOps + w.failedMv
}

// measure runs the timed window as back-to-back 1-second blocks. On a
// workload without a mover, probeBlock probe relocations follow each block,
// so the probe samples the same stretch of host time as the window. It then
// checks the result, tears the set-up down and reports the end-to-end
// metrics. It returns what the correctness checks found.
func measure(cfg config, e *env, res *result, log io.Writer) error {
	sp := e.sp
	var checks []error
	var probe *mover
	if !sp.relocate {
		var err error
		probe, err = e.newProbe()
		checks = append(checks, err)
	}
	var rates, cpus, p50s, p99s, moveP50s, stallP50s []float64
	var ops, mallocs, allocB float64
	var moves, stalls int
	for b := 0; time.Duration(b)*blockLen < cfg.window; b++ {
		w, err := e.drive(0, blockLen, false)
		checks = append(checks, err)
		res.count(w)
		r, c := blockRates(w)
		rates, cpus = append(rates, r...), append(cpus, c...)
		lat, blk := latencies(w)
		p50s = append(p50s, perBlock(lat, blk, minBlockP50, 0.5)...)
		p99s = append(p99s, perBlock(lat, blk, minBlockP99, 0.99)...)
		ops += float64(len(w.ops))
		mallocs += float64(w.mallocs)
		allocB += float64(w.allocB)
		mw := w
		if probe != nil {
			mw, err = e.probe(probe, probeBlock)
			checks = append(checks, err)
			res.count(mw)
		}
		ms := moveStats(mw, probe != nil, minBlockP50)
		moveP50s, stallP50s = append(moveP50s, ms.movesP50...), append(stallP50s, ms.stallsP50...)
		moves, stalls = moves+ms.moves, stalls+ms.stalls
	}
	checks = append(checks, e.verify())
	e.close()

	res.add("ops_s", median(rates), "1/s")
	res.add("op_p50_us", median(p50s)/1e3, "us")
	res.add("op_p99_us", median(p99s)/1e3, "us")
	res.add("cpu_us_per_op", median(cpus)/1e3, "us")
	res.add("allocs_per_op", perOp(mallocs, int64(ops)), "count")
	res.add("bytes_per_op", perOp(allocB, int64(ops)), "B")
	res.add("move_p50_us", median(moveP50s)/1e3, "us")
	res.add("stall_p50_us", median(stallP50s)/1e3, "us")
	fmt.Fprintf(log, "samples: %.0f invocations in blocks of %s; rate and CPU over %d blocks, p50 over %d, p99 over %d\n",
		ops, blockLen, len(rates), len(p50s), len(p99s))
	fmt.Fprintf(log, "blocks ops_s: %s\n", fmtList(rates))
	fmt.Fprintf(log, "blocks op_p50_us: %s\n", fmtList(scale(p50s, 1e-3)))
	src := "the window"
	if probe != nil {
		src = fmt.Sprintf("the probe, %d moves after each block", probeBlock)
	}
	fmt.Fprintf(log, "samples: %d moves, %d stalls from %s; move p50 over %d blocks, stall p50 over %d\n",
		moves, stalls, src, len(moveP50s), len(stallP50s))
	fmt.Fprintf(log, "blocks move_p50_us: %s\n", fmtList(scale(moveP50s, 1e-3)))
	return errors.Join(checks...)
}

// measureTraced measures the workload's first half-window as 1-second
// untraced blocks, each followed by a ladder chunk that replays the
// workload's inputs through the layers' public functions, then a traced
// half-window. Pairing every block with a ladder chunk measured right after
// it keeps the residuals (block p50 minus ladder sum) free of host drift
// between the two. It tears the set-up down, writes the spans to
// <workDir>/trace_<workload>.jsonl and reports the per-layer metrics. It
// returns what the correctness checks found, and an error when the ladder
// could not be measured.
func measureTraced(cfg config, e *env, res *result, log io.Writer) (checkErr, err error) {
	sp := e.sp
	remote := sp.name != "colocated_kv"
	counters := []string{"invoke_forwarded_total", "request_retries_total", "transport_sent_total", "transport_sent_bytes_total"}
	c0 := map[string]float64{}
	for _, n := range counters {
		c0[n] = e.cl.counter(n)
	}
	hops0 := e.cl.flightEvents(flight.KindHopBudget)
	echo, err := newEchoPair()
	if err != nil {
		e.close()
		return nil, err
	}
	defer echo.close()

	l := &ladder{origin: time.Now()}
	var checks []error
	var ops, numGC int
	calls := 0 // invocations the counters saw: the callers' and the mover's
	var gcCPU, totalCPU, untracedSecs float64
	var opP50s, opP99s, ladders, moveP50s, moveLadders []float64
	closureBytes := 0
	mix := e.mix(ladderOps * int(cfg.window/2/blockLen+1))
	for b := 0; time.Duration(b)*blockLen < cfg.window/2; b++ {
		w, err := e.drive(0, blockLen, false)
		checks = append(checks, err)
		res.count(w)
		ops += len(w.ops)
		calls += len(w.ops) + len(w.after)
		numGC += int(w.numGC)
		gcCPU, totalCPU = gcCPU+w.gcCPU, totalCPU+w.totalCPU
		untracedSecs += w.elapsed.Seconds()

		from := len(l.spans)
		if err := e.invokeLadder(l, remote, echo, mix[b*ladderOps:(b+1)*ladderOps]); err != nil {
			e.close()
			return nil, err
		}
		if sp.relocate {
			if closureBytes, err = e.moveLadder(l, echo, ladderMoves); err != nil {
				e.close()
				return nil, err
			}
		}
		lc := summarise(l.spans, from)
		lat, blk := latencies(w)
		opP50s = append(opP50s, median(lat))
		opP99s = append(opP99s, perBlock(lat, blk, minBlockP99, 0.99)...)
		ladders = append(ladders, median(lc.sums[spanLadderInvoke]))
		if sp.relocate {
			var mv []float64
			for _, m := range w.moves {
				mv = append(mv, float64(m.dur))
			}
			moveP50s = append(moveP50s, median(mv))
			moveLadders = append(moveLadders, median(lc.sums[spanLadderMove]))
		}
	}
	wt, err := e.drive(0, cfg.window/2, true)
	checks = append(checks, err)
	res.count(wt)
	d := map[string]float64{}
	for _, n := range counters {
		d[n] = e.cl.counter(n) - c0[n]
	}
	hops := e.cl.flightEvents(flight.KindHopBudget) - hops0
	allocs, err := e.argsAllocs()
	checks = append(checks, e.verify())
	e.close()
	if err != nil {
		return nil, err
	}

	spans := append([]span(nil), l.spans...)
	base := int32(len(spans))
	for _, s := range wt.spans {
		s.start += wt.origin.Sub(l.origin).Nanoseconds()
		s.end += wt.origin.Sub(l.origin).Nanoseconds()
		if s.parent >= 0 {
			s.parent += base
		}
		spans = append(spans, s)
	}
	tracePath := filepath.Join(cfg.workDir, "trace_"+sp.name+".jsonl")
	if err := writeSpans(tracePath, spans); err != nil {
		return nil, err
	}

	lc := summarise(l.spans, 0)
	call := func(n spanName) float64 { return median(lc.calls[n]) }
	on0 := func(ok bool, v float64) float64 {
		if ok {
			return v
		}
		return 0
	}
	opP50Us, ladderUs := median(opP50s)/1e3, median(ladders)/1e3
	invRes, invDouble := residual(opP50s, ladders)
	invResUs := invRes / 1e3
	moveP50Us, moveLadderUs := median(moveP50s)/1e3, median(moveLadders)/1e3
	moveRes, moveDouble := residual(moveP50s, moveLadders)
	moveResUs := moveRes / 1e3
	ops += len(wt.ops)
	calls += len(wt.ops) + len(wt.after)
	numGC += int(wt.numGC)
	gcCPU, totalCPU = gcCPU+wt.gcCPU, totalCPU+wt.totalCPU
	latT, blkT := latencies(wt)

	res.add("wire.args_encode_ns", call(spanEncodeArgs), "ns")
	res.add("wire.args_decode_ns", call(spanDecodeArgs), "ns")
	res.add("wire.args_allocs", allocs, "count")
	res.add("registry.invoke_ns", call(spanRegistryInvoke), "ns")
	res.add("core.invoke_ladder_us", ladderUs, "us")
	res.add("core.op_p50_us", opP50Us, "us")
	res.add("core.op_p99_us", median(opP99s)/1e3, "us")
	res.add("core.local_residual_us", on0(!remote, invResUs), "us")
	res.add("wire.payload_encode_ns", on0(remote, call(spanEncodePayload)), "ns")
	res.add("wire.payload_decode_ns", on0(remote, call(spanDecodePayload)), "ns")
	res.add("wire.envelope_ns", on0(remote, call(spanEnvelope)), "ns")
	res.add("transport.rtt_us", on0(remote, call(spanRTT)/1e3), "us")
	res.add("core.remote_residual_us", on0(remote, invResUs), "us")
	res.add("wire.closure_encode_us", on0(sp.relocate, call(spanEncodeClosure)/1e3), "us")
	res.add("wire.closure_decode_us", on0(sp.relocate, call(spanDecodeClosure)/1e3), "us")
	res.add("wire.closure_bytes", float64(closureBytes), "B")
	res.add("journal.append_us", on0(sp.relocate, call(spanJournalInstall)/1e3), "us")
	res.add("core.move_ladder_us", on0(sp.relocate, moveLadderUs), "us")
	res.add("core.move_p50_us", on0(sp.relocate, moveP50Us), "us")
	res.add("core.move_residual_us", on0(sp.relocate, moveResUs), "us")
	res.add("core.forwards_per_op", d["invoke_forwarded_total"]/float64(calls), "count")
	res.add("core.retries_per_op", d["request_retries_total"]/float64(calls), "count")
	res.add("core.hop_budget_trips", float64(hops), "count")
	res.add("transport.msgs_per_op", d["transport_sent_total"]/float64(calls), "count")
	res.add("transport.wire_bytes_per_op", d["transport_sent_bytes_total"]/float64(calls), "B")
	res.add("runtime.gc_cpu_frac", gcCPU/totalCPU, "frac")
	res.add("runtime.gc_cycles_per_kop", float64(numGC)/float64(ops)*1e3, "count")
	untracedRate := float64(ops-len(wt.ops)) / untracedSecs
	tracedRate := float64(len(wt.ops)) / wt.elapsed.Seconds()
	res.add("trace.op_p50_us", median(perBlock(latT, blkT, minBlockP50, 0.5))/1e3, "us")
	res.add("trace.overhead_frac", 1-tracedRate/untracedRate, "frac")
	res.add("trace.spans", float64(len(spans)), "count")

	path := "local: value codec + registry"
	if remote {
		path = "remote: value codec + registry + payload codec + transport round trip"
	}
	fmt.Fprintf(log, "ladder invoke (%s): sum %.2f us beside measured op_p50 %.2f us (medians over %d blocks); residual %.2f us (median of per-block differences)\n",
		path, ladderUs, opP50Us, len(opP50s), invResUs)
	if invDouble {
		fmt.Fprintf(log, "WARNING: the invoke ladder exceeds the measured op_p50: it counts some work twice\n")
	}
	if sp.relocate {
		fmt.Fprintf(log, "ladder move (closure encode+decode, bundle round trip): sum %.2f us beside measured move_p50 %.2f us; residual %.2f us\n",
			moveLadderUs, moveP50Us, moveResUs)
		fmt.Fprintf(log, "journal.append_us: INSTALL appends in %s on %s, a ladder of its own: the workload's moves are unjournaled\n",
			filepath.Join(cfg.workDir, "journal"), fsType(cfg.workDir))
		if moveDouble {
			fmt.Fprintf(log, "WARNING: the move ladder exceeds the measured move_p50: it counts some work twice\n")
		}
	}
	fmt.Fprintf(log, "tracing: %.0f ops/s untraced, %.0f ops/s traced; %d spans written to %s\n", untracedRate, tracedRate, len(spans), tracePath)
	return errors.Join(checks...), nil
}

// blockRates returns, for each complete block with invocations in it, the
// invocations per second and the process CPU nanoseconds per invocation.
func blockRates(w *window) (rates, cpuPerOp []float64) {
	n := len(w.bounds) - 1
	counts := make([]int, n)
	for _, o := range w.ops {
		if b := blockOf(w.bounds, o.start); b >= 0 {
			counts[b]++
		}
	}
	for i := 0; i < n; i++ {
		if counts[i] == 0 {
			continue
		}
		dt := float64(w.bounds[i+1].at-w.bounds[i].at) / 1e9
		rates = append(rates, float64(counts[i])/dt)
		cpuPerOp = append(cpuPerOp, float64(w.bounds[i+1].cpu-w.bounds[i].cpu)/float64(counts[i]))
	}
	return rates, cpuPerOp
}

// blockOf returns the complete block an instant falls in, or -1 past the
// last boundary.
func blockOf(bounds []boundary, at int64) int {
	i := sort.Search(len(bounds), func(i int) bool { return bounds[i].at > at }) - 1
	if i < 0 || i >= len(bounds)-1 {
		return -1
	}
	return i
}

// latencies returns each invocation's latency in nanoseconds with its
// block. A failed invocation counts with the time its caller waited for the
// error: the caller saw that latency, and the failure itself is counted in
// the result's failed total.
func latencies(w *window) ([]float64, []int) {
	lat := make([]float64, len(w.ops))
	blk := make([]int, len(w.ops))
	for i, o := range w.ops {
		lat[i] = float64(o.dur)
		blk[i] = blockOf(w.bounds, o.start)
	}
	return lat, blk
}

// moveSummary is what a window's moves measured: per-block medians of move
// latency and of stall, with the sample counts behind them.
type moveSummary struct {
	movesP50, stallsP50 []float64
	moves, stalls       int
}

// moveStats summarises a window's moves. A move's stall is the invocation
// issued right after it (w.after), or, where moves were not paired with one
// (relocate_race), the longest invocation that started during the move. In a
// window with a mover, moves fall into the window's blocks; for the probe,
// blocks are runs of probeBlock consecutive moves (one probe call is one
// block). A failed move counts with the time it took to fail. A block needs
// minN moves to count.
func moveStats(w *window, probe bool, minN int) moveSummary {
	var moves, stalls []float64
	var mblk, sblk []int
	for i, m := range w.moves {
		d := float64(m.dur)
		b := i / probeBlock
		if !probe {
			b = blockOf(w.bounds, m.start)
		}
		moves, mblk = append(moves, d), append(mblk, b)
		longest := -1.0
		if w.after != nil {
			if i < len(w.after) {
				longest = float64(w.after[i].dur)
			}
		} else {
			j := sort.Search(len(w.ops), func(j int) bool { return w.ops[j].start >= m.start })
			for ; j < len(w.ops) && w.ops[j].start <= m.start+m.dur; j++ {
				longest = math.Max(longest, float64(w.ops[j].dur))
			}
		}
		if longest >= 0 {
			stalls, sblk = append(stalls, longest), append(sblk, b)
		}
	}
	return moveSummary{
		movesP50:  perBlock(moves, mblk, minN, 0.5),
		stallsP50: perBlock(stalls, sblk, minN, 0.5),
		moves:     len(moves),
		stalls:    len(stalls),
	}
}

// hostRef times a fixed block of standard-library work (SHA-256 over a
// fixed buffer) on g goroutines, reps times, in milliseconds. It runs before
// set-up and after teardown, so the program under test cannot affect it: it
// shows whether a disagreement between runs came from the host.
func hostRef(g, reps int) []float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	var out []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					sha256.Sum256(buf)
				}
			}()
		}
		wg.Wait()
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return out
}

// cpuClasses returns cumulative GC CPU and total CPU seconds as the Go
// runtime accounts them.
func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("filesystem 0x%x", uint64(st.Type))
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(parts, " ")
}
