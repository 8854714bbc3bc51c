package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	tsig "repro"
	"repro/service"
)

const (
	batchSize   = 8  // messages per SignBatch call on sign_batch
	hotSetSize  = 16 // pre-signed messages sign_hot draws from: one SignBatch per client
	warmupSigns = 4  // verified Sign calls that end every set-up
)

// workload is one traffic mix. All of them are closed loops: the callers
// of a signing gateway (the CA in examples/distributed-ca) block on the
// reply, so each client goroutine sends its next request only after the
// previous one returned.
type workload struct {
	name      string
	why       string // one line, mirrored in BENCHMARK.json
	clients   int    // never more than nproc on the 2-core reference box
	byzantine bool
	// prime runs once per set-up, after the warm-up signs.
	prime func(ctx context.Context, st *runState) error
	// step performs one closed-loop operation for one client.
	step func(ctx context.Context, st *runState, c *clientState) opRecord
	// check verifies a record's outputs after the window has closed and
	// adds what failed to rec.failed. Nil when step checks inline.
	check func(st *runState, rec *opRecord)
}

var workloads = []*workload{
	{
		name:    "sign_unique",
		why:     "1 client, fresh message per Sign on an honest fleet: the headline path (n Share-Signs, t+1 serial Share-Verifies, Combine, Verify) with a core to spare, so latency and CPU-sum separate",
		clients: 1, step: stepSign, check: checkSigned,
	},
	{
		name:    "sign_byzantine",
		why:     "sign_unique with signer 1 replaying a stale share that always arrives first: whatever convicts a bad share is on every request's critical path",
		clients: 1, byzantine: true, step: stepSign, check: checkSigned,
	},
	{
		name:    "sign_batch",
		why:     "2 clients, SignBatch of 8 fresh messages: the second pipeline (batchFanOut, BatchShareVerify, /v1/sign-batch) at CPU saturation, the throughput regime",
		clients: 2, step: stepSignBatch, check: checkSigned,
	},
	{
		name:    "sign_hot",
		why:     "2 clients re-signing 16 pre-signed messages: every op is a signature-cache hit, so client+service overhead does all the work and the crypto layers none",
		clients: 2, prime: primeHot, step: stepSignHot,
	},
	{
		name:    "keygen_refresh",
		why:     "1 client cycling Rotate, RunRefresh, Sign: dkg+engine+protocol sessions do the work and every daemon rebuilds its pairing tables twice a cycle",
		clients: 1, step: stepCycle, check: checkCycle,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opRecord is one closed-loop operation: what was asked and how long the
// client waited. sign_hot makes ~10^5 of them in a window, so the outputs
// kept for checking hang off a pointer that stays nil there.
type opRecord struct {
	lat    time.Duration // client-observed latency of the whole call (or cycle)
	sigs   int           // signatures the call was asked for
	failed int           // of those: errored, missing, or failed their check
	err    error
	out    *opOutputs
}

// opOutputs is what a call returned, kept until the window has closed.
type opOutputs struct {
	msgs    [][]byte
	got     []*tsig.Signature // got[j] answers msgs[j]; nil = not delivered
	signers [][]int

	// keygen_refresh only.
	keygenLat, refreshLat, signLat time.Duration
	prevPK                         *tsig.PublicKey
	rotated, refreshed             *tsig.Group
}

// clientState is one load-generating goroutine's private state.
type clientState struct {
	id  int
	rng *rand.Rand
	seq int // messages generated so far; never reset, so no message repeats
}

// runState is one set-up fleet plus what the workload needs to drive it.
type runState struct {
	w     *workload
	seed  uint64
	fleet *fleet
	group *tsig.Group // current group; keygen_refresh replaces it every cycle
	cs    []*clientState
	tr    *tracer // non-nil only during a traced pass

	hotMsgs [][]byte
	hotSigs [][]byte // marshalled, verified during priming
}

// freshMessage derives the client's next message from the seed: a unique
// readable prefix plus 16 seeded random bytes.
func (st *runState) freshMessage(c *clientState) []byte {
	c.seq++
	msg := fmt.Appendf(nil, "%s/seed=%d/client=%d/%d/", st.w.name, st.seed, c.id, c.seq)
	var tail [16]byte
	for i := range tail {
		tail[i] = byte(c.rng.UintN(256))
	}
	return append(msg, tail[:]...)
}

// setUp brings a keyed fleet to the state the window starts from:
// listeners up, Dist-Keygen over HTTP done, pairing tables built, the
// warm-up signs verified, the workload primed.
func setUp(ctx context.Context, w *workload, seed uint64) (*runState, error) {
	f, err := startFleet(ctx, w.byzantine)
	if err != nil {
		return nil, err
	}
	st := &runState{w: w, seed: seed, fleet: f, group: f.group}
	for c := 0; c < w.clients; c++ {
		st.cs = append(st.cs, &clientState{id: c, rng: rand.New(rand.NewPCG(seed, uint64(c)+1))})
	}
	for i := 0; i < warmupSigns; i++ {
		rec := stepSign(ctx, st, st.cs[0])
		checkSigned(st, &rec)
		if rec.failed > 0 {
			f.close()
			return nil, fmt.Errorf("warm-up sign %d failed its check: %v", i, rec.err)
		}
	}
	if w.prime != nil {
		if err := w.prime(ctx, st); err != nil {
			f.close()
			return nil, err
		}
	}
	return st, nil
}

// call runs one client call; during a traced pass it is wrapped in a span
// and tagged with a request id the daemons' logs and responses echo.
func (st *runState) call(ctx context.Context, parent int, name string, fn func(context.Context) error) (time.Duration, error) {
	if st.tr == nil {
		start := time.Now()
		err := fn(ctx)
		return time.Since(start), err
	}
	id := st.tr.start(parent, "client", name)
	ctx = service.WithRequestID(ctx, st.tr.requestID(parent))
	err := fn(ctx)
	return st.tr.end(id), err
}

func stepSign(ctx context.Context, st *runState, c *clientState) opRecord {
	msg := st.freshMessage(c)
	out := &opOutputs{msgs: [][]byte{msg}, got: make([]*tsig.Signature, 1), signers: make([][]int, 1)}
	rec := opRecord{sigs: 1, out: out}
	root := st.tr.startOp()
	rec.lat, rec.err = st.call(ctx, root, "Sign", func(ctx context.Context) error {
		sig, resp, err := st.fleet.cli.Sign(ctx, msg)
		if err != nil {
			return err
		}
		if want := st.tr.requestID(root); want != "" && resp.RequestID != want {
			return fmt.Errorf("request id %q not echoed (got %q)", want, resp.RequestID)
		}
		out.got[0], out.signers[0] = sig, resp.Signers
		return nil
	})
	if st.tr != nil && rec.err == nil && !st.w.byzantine {
		rec.err = st.replayPipeline(ctx, root, msg)
	}
	st.tr.end(root)
	return rec
}

func stepSignBatch(ctx context.Context, st *runState, c *clientState) opRecord {
	out := &opOutputs{
		msgs: make([][]byte, batchSize), got: make([]*tsig.Signature, batchSize), signers: make([][]int, batchSize),
	}
	rec := opRecord{sigs: batchSize, out: out}
	for j := range out.msgs {
		out.msgs[j] = st.freshMessage(c)
	}
	root := st.tr.startOp()
	rec.lat, rec.err = st.call(ctx, root, "SignBatch", func(ctx context.Context) error {
		sigs, resp, err := st.fleet.cli.SignBatch(ctx, out.msgs)
		if err != nil {
			return err
		}
		out.got = sigs
		for j, r := range resp.Results {
			out.signers[j] = r.Signers
		}
		return nil
	})
	st.tr.end(root)
	return rec
}

// checkSigned verifies every signature of the record with plain
// Group.Verify — BatchVerify is a layer under test, not an oracle — and,
// on the Byzantine fleet, that signer 1 never made it into a quorum.
func checkSigned(st *runState, rec *opRecord) {
	if rec.err != nil {
		rec.failed = rec.sigs
		return
	}
	for j, msg := range rec.out.msgs {
		if !signatureOK(st.group, msg, rec.out.got[j], rec.out.signers[j], st.w.byzantine) {
			rec.failed++
		}
	}
}

func signatureOK(g *tsig.Group, msg []byte, sig *tsig.Signature, signers []int, byzantine bool) bool {
	if sig == nil || !g.Verify(msg, sig) {
		return false
	}
	if byzantine {
		for _, i := range signers {
			if i == 1 {
				return false
			}
		}
	}
	return true
}

// primeHot pre-signs the hot set — one SignBatch per client, side by side;
// it fills the same signature cache Sign reads — and verifies every entry,
// so the window can compare replies byte for byte.
func primeHot(ctx context.Context, st *runState) error {
	st.hotMsgs = make([][]byte, hotSetSize)
	st.hotSigs = make([][]byte, hotSetSize)
	per := hotSetSize / len(st.cs)
	errs := make([]error, len(st.cs))
	var wg sync.WaitGroup
	for k, c := range st.cs {
		msgs := st.hotMsgs[k*per : (k+1)*per]
		for j := range msgs {
			msgs[j] = st.freshMessage(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sigs, _, err := st.fleet.cli.SignBatch(ctx, msgs)
			if err != nil {
				errs[k] = err
				return
			}
			for j, sig := range sigs {
				if !signatureOK(st.group, msgs[j], sig, nil, false) {
					errs[k] = fmt.Errorf("hot message %d failed verification", k*per+j)
					return
				}
				st.hotSigs[k*per+j] = sig.Marshal()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("priming the hot set: %w", err)
		}
	}
	return nil
}

// stepSignHot checks inline: comparing 64 bytes costs nanoseconds, and
// keeping ~10^5 replies for later would put the load generator's own
// memory into peak_rss_mb.
func stepSignHot(ctx context.Context, st *runState, c *clientState) opRecord {
	i := c.rng.IntN(len(st.hotMsgs))
	rec := opRecord{sigs: 1}
	root := st.tr.startOp()
	rec.lat, rec.err = st.call(ctx, root, "Sign", func(ctx context.Context) error {
		_, resp, err := st.fleet.cli.Sign(ctx, st.hotMsgs[i])
		if err != nil {
			return err
		}
		if !hotReplyOK(resp, st.hotSigs[i]) {
			rec.failed = 1
		}
		return nil
	})
	st.tr.end(root)
	if rec.err != nil {
		rec.failed = 1
	}
	return rec
}

// hotReplyOK: a cache hit must say so and return the verified bytes.
func hotReplyOK(resp *service.SignatureResponse, want []byte) bool {
	return resp.Cached && bytes.Equal(resp.Signature, want)
}

// stepCycle is one keygen_refresh cycle: a fresh Dist-Keygen under the
// default group ID, one proactive refresh, one signature under the result.
func stepCycle(ctx context.Context, st *runState, c *clientState) (rec opRecord) {
	msg := st.freshMessage(c)
	out := &opOutputs{msgs: [][]byte{msg}, got: make([]*tsig.Signature, 1), prevPK: st.group.PK}
	rec = opRecord{sigs: 1, out: out}
	root := st.tr.startOp()
	defer func() {
		st.tr.end(root)
		rec.lat = out.keygenLat + out.refreshLat + out.signLat
	}()
	cli := st.fleet.cli
	out.keygenLat, rec.err = st.call(ctx, root, "Rotate", func(ctx context.Context) (err error) {
		out.rotated, _, err = cli.Rotate(ctx, fleetT, fleetDomain)
		return err
	})
	if rec.err != nil {
		return rec
	}
	out.refreshLat, rec.err = st.call(ctx, root, "RunRefresh", func(ctx context.Context) (err error) {
		out.refreshed, _, err = cli.RunRefresh(ctx)
		return err
	})
	if rec.err != nil {
		return rec
	}
	st.group = out.refreshed
	out.signLat, rec.err = st.call(ctx, root, "Sign", func(ctx context.Context) (err error) {
		out.got[0], _, err = cli.Sign(ctx, msg)
		return err
	})
	return rec
}

func checkCycle(_ *runState, rec *opRecord) {
	o := rec.out
	if rec.err != nil || !cycleOK(o.prevPK, o.rotated, o.refreshed, o.msgs[0], o.got[0]) {
		rec.failed = rec.sigs
	}
}

// cycleOK: rotation must change the public key and yield a valid group;
// refresh must keep the public key and re-randomize every verification
// key; the cycle's signature must verify under the refreshed group.
func cycleOK(prev *tsig.PublicKey, rotated, refreshed *tsig.Group, msg []byte, sig *tsig.Signature) bool {
	if rotated == nil || refreshed == nil || sig == nil {
		return false
	}
	if rotated.Validate() != nil || rotated.PK.Equal(prev) || !refreshed.PK.Equal(rotated.PK) {
		return false
	}
	for i := 1; i <= rotated.N; i++ {
		if refreshed.VKs[i].Equal(rotated.VKs[i]) {
			return false
		}
	}
	return refreshed.Verify(msg, sig)
}

// pass is one measured window on a set-up fleet.
type pass struct {
	records []opRecord
	wall    time.Duration // window start to the last client's return
	cpu     time.Duration // getrusage(RUSAGE_SELF) user+sys over wall
	alloc   uint64        // runtime.MemStats.TotalAlloc over wall
	delta   fleetDelta    // /metrics, scraped outside the window
}

func (p *pass) attempted() (n int) {
	for i := range p.records {
		n += p.records[i].sigs
	}
	return n
}

func (p *pass) failed() (n int) {
	for i := range p.records {
		n += p.records[i].failed
	}
	return n
}

// delivered is the number of checked signatures the window produced.
func (p *pass) delivered() int { return p.attempted() - p.failed() }

func (p *pass) latencies(pick func(*opRecord) time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(p.records))
	for i := range p.records {
		if p.records[i].err == nil {
			out = append(out, pick(&p.records[i]))
		}
	}
	return out
}

func callLatency(r *opRecord) time.Duration { return r.lat }

// Per-call latencies inside a keygen_refresh cycle; zero elsewhere.
func keygenLatency(r *opRecord) time.Duration    { return r.outputs().keygenLat }
func refreshLatency(r *opRecord) time.Duration   { return r.outputs().refreshLat }
func cycleSignLatency(r *opRecord) time.Duration { return r.outputs().signLat }

func (r *opRecord) outputs() *opOutputs {
	if r.out == nil {
		return &opOutputs{}
	}
	return r.out
}

// measure runs the workload's clients for the window and checks every
// output after it has closed: one Group.Verify costs as much CPU as two
// Share-Signs, so checking inside the loop would steal a tenth of the
// very CPU being measured.
func (st *runState) measure(ctx context.Context, window time.Duration) (*pass, error) {
	p := &pass{}
	var err error
	if p.delta.before, err = st.fleet.scrape(ctx); err != nil {
		return nil, err
	}
	runtime.GC() // start every window from a collected heap
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, cpuTime()

	perClient := make([][]opRecord, len(st.cs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i, c := range st.cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				perClient[i] = append(perClient[i], st.w.step(ctx, st, c))
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - alloc0

	if p.delta.after, err = st.fleet.scrape(ctx); err != nil {
		return nil, err
	}
	for _, recs := range perClient {
		p.records = append(p.records, recs...)
	}
	st.checkAll(p.records)
	return p, nil
}

// checkAll runs the workload's check over the records on every core.
func (st *runState) checkAll(records []opRecord) {
	if st.w.check == nil {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(records); i += workers {
				st.w.check(st, &records[i])
			}
		}()
	}
	wg.Wait()
}
