package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"catsim/internal/server"
	"catsim/internal/sim"
)

// serve-jobs runs catsim-server in process on loopback with one
// simulation worker per CPU, driven by one closed-loop client per CPU:
// each client POSTs a job, reads its NDJSON stream to the terminal line,
// then sends the next. The mix is closed-loop DRCAT on 2ch, open-loop
// ol-bursty with an attacker tenant under CoMeT and the oracle, and
// channel-affine SCA on 4ch with the sharded engine. Every repeatEvery-th
// POST repeats an earlier job of the pass, so cache-hit replays (reads)
// run beside fresh engine runs (writes). An op is one job, from POST to
// its terminal stream line; a pass is jobsPerPass jobs on a fresh server.

const (
	jobsPerPass = 384
	// repeatEvery sets the share of repeat POSTs. It is an assumed
	// traffic mix, not one taken from a measured service.
	repeatEvery = 4
	jobEpochs   = 8
	// jobCheckEvery is the share of fresh jobs whose terminal Result is
	// compared with a direct sim.Run of the same config.
	jobCheckEvery = 8
)

// jobTemplates is the job mix; each takes the job's seed.
var jobTemplates = []func(seed uint64) server.JobRequest{
	func(seed uint64) server.JobRequest {
		return server.JobRequest{Scheme: "drcat:counters=64,levels=11", Geometry: "2ch",
			Workload: "comm1", Requests: 4000, Epochs: jobEpochs, Seed: seed}
	},
	func(seed uint64) server.JobRequest {
		return server.JobRequest{Scheme: "comet:counters=512,depth=4", Workload: "ol-bursty",
			Attacker: 0.1, Oracle: true, Requests: 8000, Epochs: jobEpochs, Seed: seed}
	},
	func(seed uint64) server.JobRequest {
		return server.JobRequest{Scheme: "sca:counters=128", Geometry: "4ch", Workload: "comm2",
			Cores: 4, Affine: true, Shards: 2, Requests: 2000, Epochs: jobEpochs, Seed: seed}
	},
}

// plannedJob is one POST of a pass.
type plannedJob struct {
	req    server.JobRequest
	repeat int // index of the pass's job this POST repeats, or -1
}

// planPass lays out pass p's n jobs: a fresh seed for every fresh job
// (never reused across passes), and every repeatEvery-th POST a repeat of
// an earlier fresh job of the pass.
func planPass(o *options, p, n int) []plannedJob {
	plan := make([]plannedJob, n)
	for j := range plan {
		k := uint64(p)<<32 | uint64(j)
		if j%repeatEvery != repeatEvery-1 {
			plan[j] = plannedJob{req: jobTemplates[j%len(jobTemplates)](mix(o.seed, k)), repeat: -1}
			continue
		}
		r := int(mix(o.seed, k) % uint64(j))
		for plan[r].repeat >= 0 {
			r--
		}
		plan[j] = plannedJob{req: plan[r].req, repeat: r}
	}
	return plan
}

// jobOutcome is what one client observed for one job.
type jobOutcome struct {
	err      error
	id       string
	cached   bool
	start    time.Time
	accepted time.Time // POST reply read
	first    time.Time // first stream line read
	done     time.Time // terminal line read
	digest   [32]byte  // of the whole stream
	terminal []byte    // the terminal line
}

func (j *jobOutcome) latencyMS() float64 { return float64(j.done.Sub(j.start).Nanoseconds()) / 1e6 }

// liveServer is an in-process catsim-server on a loopback port.
type liveServer struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan struct{}
}

// startServer builds a server, starts it and returns once /healthz
// answers.
func startServer(workers int, hc *http.Client) (*liveServer, error) {
	srv, err := server.New(server.Options{Workers: workers, QueueDepth: jobsPerPass})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, http: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	srv.Start()
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	resp, err := hc.Get(ls.base + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz: %s", resp.Status)
		}
	}
	if err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// stop shuts the HTTP front end and the worker pool down and waits for
// both.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ls.http.Shutdown(ctx) // stop accepting, wait for in-flight handlers
	<-ls.done
	return ls.srv.Close(ctx) // drain the workers
}

// stats fetches /v1/stats.
func (ls *liveServer) stats(hc *http.Client) (map[string]int64, error) {
	resp, err := hc.Get(ls.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return st, nil
}

// runJob POSTs one job and reads its stream to the terminal line.
func (ls *liveServer) runJob(hc *http.Client, req server.JobRequest) (out jobOutcome) {
	out.start = time.Now()
	body, err := json.Marshal(req)
	if err != nil {
		out.err = err
		return out
	}
	resp, err := hc.Post(ls.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	var st struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
		Stream string `json:"stream"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	out.accepted = time.Now()
	switch {
	case err != nil:
		out.err = fmt.Errorf("POST reply: %w", err)
		return out
	case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
		out.err = fmt.Errorf("POST: %s", resp.Status)
		return out
	}
	out.id, out.cached = st.ID, st.Cached

	resp, err = hc.Get(ls.base + st.Stream)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	h := sha256.New()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if out.first.IsZero() {
				out.first = time.Now()
			}
			h.Write(line)
			out.terminal = line
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			out.err = fmt.Errorf("stream: %w", err)
			return out
		}
	}
	out.done = time.Now()
	if out.first.IsZero() {
		out.err = fmt.Errorf("stream of job %s was empty", out.id)
	}
	copy(out.digest[:], h.Sum(nil))
	return out
}

// runPlan sends the plan's jobs from `clients` closed-loop clients, each
// taking the next unsent job when its previous one finished.
func (ls *liveServer) runPlan(hc *http.Client, plan []plannedJob, clients int) []jobOutcome {
	outs := make([]jobOutcome, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(plan) {
					return
				}
				outs[j] = ls.runJob(hc, plan[j].req)
			}
		}()
	}
	wg.Wait()
	return outs
}

// resultLine is the NDJSON envelope of a stream's terminal result line.
type resultLine struct {
	Result *sim.Result `json:"result,omitempty"`
}

// checkDirect fails op unless its terminal line is exactly the direct
// sim.Run of the job's config, encoded like the server does.
func checkDirect(m *measurement, op int, req server.JobRequest, terminal []byte) {
	cfg, err := req.Config()
	if err != nil {
		m.fail(op, "job config: %v", err)
		return
	}
	res, err := sim.Run(cfg)
	if err != nil {
		m.fail(op, "direct run: %v", err)
		return
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resultLine{Result: &res}); err != nil {
		m.fail(op, "encoding the direct run's result: %v", err)
		return
	}
	if !bytes.Equal(want.Bytes(), terminal) {
		m.fail(op, "terminal Result differs from a direct sim.Run of the same config")
	}
}

// corruptTerminal damages a job's terminal line (the benchmark's own
// tests check that this is caught).
func corruptTerminal(out *jobOutcome) {
	out.terminal = append([]byte(nil), out.terminal...)
	out.terminal[len(out.terminal)/2] ^= 1
}

// simRequests is the number of DRAM requests a job simulates.
func simRequests(req server.JobRequest) (int64, error) {
	cfg, err := req.Config()
	if err != nil {
		return 0, err
	}
	n := int64(cfg.Cores * cfg.RequestsPerCore)
	if cfg.OpenLoop != nil {
		n += int64(cfg.OpenLoop.Requests)
	}
	return n, nil
}

func newHTTPClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// checkPass checks one pass's outcomes against the plan and returns the
// fresh jobs whose terminal line still has to be compared with a direct
// run. A job POSTed more than once must have streamed the same bytes
// every time, and exactly one of those POSTs may have started it:
// whichever of two concurrent clients got there first.
func checkPass(o *options, m *measurement, plan []plannedJob, outs []jobOutcome, opBase int) []int {
	starts := map[int]int{} // fresh job -> POSTs of it that started a run
	for j, out := range outs {
		origin := j
		if plan[j].repeat >= 0 {
			origin = plan[j].repeat
		}
		if out.err == nil && !out.cached {
			starts[origin]++
		}
	}
	var sampled []int
	for j, out := range outs {
		op := opBase + j
		switch {
		case out.err != nil:
			m.fail(op, "%v", out.err)
			continue
		case !bytes.HasPrefix(out.terminal, []byte(`{"result":`)):
			m.fail(op, "job %s ended with %q", out.id, bytes.TrimSpace(out.terminal))
			continue
		}
		origin := j
		if plan[j].repeat >= 0 {
			origin = plan[j].repeat
			first := &outs[origin]
			if out.id != first.id || out.digest != first.digest {
				m.fail(op, "repeat of job %s streamed different bytes", first.id)
			}
		} else if o.smoke || op%jobCheckEvery == 0 {
			sampled = append(sampled, j)
		}
		if starts[origin] != 1 {
			m.fail(op, "job %s was started %d times", out.id, starts[origin])
		}
	}
	return sampled
}

// jobsClient is the load side of serve-jobs: one closed-loop client per
// CPU sharing one HTTP client.
type jobsClient struct {
	hc      *http.Client
	clients int
}

func newJobsClient() jobsClient {
	clients := runtimeCPUs()
	return jobsClient{hc: newHTTPClient(clients), clients: clients}
}

// onePass runs one plan on a fresh server. Only runPlan is timed, through
// pass when it is non-nil; the returned stats are read after the jobs.
func (c jobsClient) onePass(plan []plannedJob, pass func(func() error) error) ([]jobOutcome, map[string]int64, error) {
	ls, err := startServer(c.clients, c.hc)
	if err != nil {
		return nil, nil, err
	}
	var outs []jobOutcome
	run := func() error {
		outs = ls.runPlan(c.hc, plan, c.clients)
		return nil
	}
	if pass != nil {
		err = pass(run)
	} else {
		err = run()
	}
	var st map[string]int64
	if err == nil {
		st, err = ls.stats(c.hc)
	}
	if serr := ls.stop(); err == nil {
		err = serr
	}
	return outs, st, err
}

// firstJobs is one set-up step: a fresh server from server.New until
// the terminal line of the last of reqs, sent one after another. Each
// request of a new shape runs on a cold worker context.
func (c jobsClient) firstJobs(reqs []server.JobRequest) (time.Duration, error) {
	t0 := time.Now()
	ls, err := startServer(c.clients, c.hc)
	if err != nil {
		return 0, err
	}
	for _, req := range reqs {
		if out := ls.runJob(c.hc, req); out.err != nil {
			ls.stop()
			return 0, out.err
		}
	}
	d := time.Since(t0)
	return d, ls.stop()
}

func measureServeJobs(o *options, m *measurement) error {
	perPass := jobsPerPass
	if o.smoke {
		perPass = 8
	}
	reqs := make([]int64, len(jobTemplates))
	for i, t := range jobTemplates {
		n, err := simRequests(t(1))
		if err != nil {
			return err
		}
		reqs[i] = n
	}
	c := newJobsClient()
	defer c.hc.CloseIdleConnections()

	// Set-up: server.New until one job of each template has finished.
	// Their seeds lie in pass slot 1<<31, which no other pass uses.
	first := make([]server.JobRequest, len(jobTemplates))
	for i, t := range jobTemplates {
		first[i] = t(mix(o.seed, 1<<63|uint64(i)))
	}
	if err := m.timeSetup(func() (time.Duration, error) { return c.firstJobs(first) }); err != nil {
		return err
	}

	// Warm-up pass, excluded from timing (its seeds are never reused).
	if _, _, err := c.onePass(planPass(o, 1<<30, perPass), nil); err != nil {
		return err
	}

	type check struct {
		op       int
		req      server.JobRequest
		terminal []byte
	}
	var checks []check
	start := time.Now()
	for p := 0; !m.enough(o, start); p++ {
		plan := planPass(o, p, perPass)
		for j := range plan {
			if plan[j].repeat < 0 {
				m.simReqs += reqs[j%len(jobTemplates)]
			}
		}
		outs, _, err := c.onePass(plan, m.pass)
		if err != nil {
			return err
		}
		opBase := m.attempted
		m.attempted += len(plan)
		for j := range outs {
			if o.corrupted(opBase + j) {
				corruptTerminal(&outs[j])
			}
			if outs[j].err == nil {
				m.opMS = append(m.opMS, outs[j].latencyMS())
			}
		}
		for _, j := range checkPass(o, m, plan, outs, opBase) {
			checks = append(checks, check{opBase + j, plan[j].req, outs[j].terminal})
		}
	}

	for _, c := range checks {
		checkDirect(m, c.op, c.req, c.terminal)
	}
	if len(m.opMS) == 0 {
		return errNoOps
	}
	return nil
}
