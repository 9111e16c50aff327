package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"cocg/internal/coordinator"
	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/streaming"
)

// The serving shape. At 500 virtual seconds per host second a frame batch
// (one per 5-second detection frame) is due every 10 ms, which the delivery
// loop keeps on a two-core host; at 2000 it falls behind. Two closed-loop
// clients is the host's core count: one plays through the coordinator, one
// straight to a cluster.
const (
	servePace       = 500
	serveTickEvery  = time.Second / servePace
	serveGapNominal = 5 * 1000 / servePace // ms between frame batches
	serveServers    = 2                    // backend servers per cluster
	serveTimeout    = 2 * time.Minute
	serveQueue      = 200 // session requests generated per client
)

// serveRig is the in-process serving deployment: two streaming clusters and
// a coordinator in front of them.
type serveRig struct {
	sys      *core.System
	trainS   float64
	clusters [2]*streaming.Server
	coord    *coordinator.Coordinator
}

func (g *serveRig) close() {
	if g.coord != nil {
		_ = g.coord.Close() // teardown: both servers below are closed next
	}
	for _, s := range g.clusters {
		if s != nil {
			_ = s.Close() // teardown
		}
	}
}

// startServeRig trains the system, starts both clusters and the coordinator
// on loopback, and waits until the coordinator holds a load summary from
// every cluster.
func startServeRig(seed int64) (*serveRig, error) {
	t0 := time.Now()
	sys, err := core.Train(gamesim.AllGames(), core.TrainOptions{Seed: seed, Workers: 1})
	if err != nil {
		return nil, err
	}
	g := &serveRig{sys: sys, trainS: time.Since(t0).Seconds()}
	for i := range g.clusters {
		s, err := streaming.Serve("127.0.0.1:0", streaming.ServerConfig{
			System: sys, Servers: serveServers, TickEvery: serveTickEvery,
			SessionSeed: seed + int64(i)*1_000_003, Jobs: 1,
		})
		if err != nil {
			g.close()
			return nil, err
		}
		g.clusters[i] = s
	}
	g.coord, err = coordinator.Serve("127.0.0.1:0", coordinator.Config{Clusters: []coordinator.ClusterSpec{
		{Name: "near", Addr: g.clusters[0].Addr(), LatencyMS: 20},
		{Name: "far", Addr: g.clusters[1].Addr(), LatencyMS: 60},
	}})
	if err != nil {
		g.close()
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := g.coordStatus()
		if err != nil {
			g.close()
			return nil, err
		}
		if st.probed() {
			return g, nil
		}
		if time.Now().After(deadline) {
			g.close()
			return nil, errors.New("no fleet summary from every cluster within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
}

// coordStatus is the part of the coordinator's /status document the
// benchmark reads.
type coordStatus struct {
	Decisions uint64 `json:"routing_decisions"`
	Failovers uint64 `json:"failovers"`
	Clusters  []struct {
		Probed        bool    `json:"probed"`
		SummaryAgeSec float64 `json:"summary_age_seconds"`
		ProbeFailures uint64  `json:"probe_failures"`
	} `json:"clusters"`
}

func (c coordStatus) probed() bool {
	for _, m := range c.Clusters {
		if !m.Probed {
			return false
		}
	}
	return len(c.Clusters) > 0
}

// clusterStatus is the part of a cluster's /status document the benchmark
// reads.
type clusterStatus struct {
	FramesSent      uint64 `json:"frames_sent"`
	FramesCoalesced uint64 `json:"frames_coalesced"`
	FramesDropped   uint64 `json:"frames_dropped"`
	SummariesServed uint64 `json:"summaries_served"`
}

func readStatus(h http.Handler, into any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("/status answered %d", rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), into)
}

func (g *serveRig) coordStatus() (coordStatus, error) {
	var st coordStatus
	return st, readStatus(g.coord.MetricsHandler(), &st)
}

// sessionReq is one generated session: which game, script and player.
type sessionReq struct {
	game   string
	script int
	habit  int64
}

// serveRequests generates a client's sessions from the seed: games rotate
// through all five, script and returning player are drawn per session.
func serveRequests(sys *core.System, seed int64, client int) []sessionReq {
	rng := rand.New(rand.NewSource(seed*31 + int64(client)))
	games := gamesim.AllGames()
	pools := sys.HabitPools()
	off := rng.Intn(len(games))
	out := make([]sessionReq, serveQueue)
	for i := range out {
		spec := games[(off+i)%len(games)]
		req := sessionReq{game: spec.Name, script: rng.Intn(len(spec.Scripts)), habit: rng.Int63()}
		if pool := pools[spec.Name]; len(pool) > 0 {
			req.habit = pool[rng.Intn(len(pool))]
		}
		out[i] = req
	}
	return out
}

// sessionSample is what a client measured over one session.
type sessionSample struct {
	routed  bool
	traced  bool
	admitMS float64 // dial to Accept
	ttffMS  float64 // dial to the first frame batch
	wallS   float64 // dial to End
	virtS   float64 // simulated session length from the End
	gapsMS  []float64
}

// sessionLayers are the span layers of one client's sessions: the session
// as the benchmark handles it, its admission, and its frame stream.
type sessionLayers struct{ session, admit, stream int32 }

// playSession plays one full session against addr: Hello, Accept, frame
// batches with an input batch every second one, and the End. It fails when
// the session is rejected or the End does not arrive.
func playSession(addr string, req sessionReq, id int64, tr *tracer, lay sessionLayers) (*sessionSample, error) {
	s := &sessionSample{}
	tr.beginAt(lay.session, id)
	defer tr.end()
	start := time.Now()
	tr.beginAt(lay.admit, id)
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		tr.end()
		return nil, err
	}
	conn := streaming.NewConn(nc)
	defer func() { _ = conn.Close() }() // teardown after the End
	if err := nc.SetDeadline(start.Add(serveTimeout)); err != nil {
		tr.end()
		return nil, err
	}
	if err := conn.Send(&streaming.Envelope{Type: streaming.MsgHello, Hello: &streaming.Hello{
		Game: req.game, Script: req.script, Habit: req.habit, Proto: streaming.ProtoBinary3,
	}}); err != nil {
		tr.end()
		return nil, err
	}
	env, err := conn.Recv()
	s.admitMS = float64(time.Since(start)) / 1e6
	tr.end()
	if err != nil {
		return nil, err
	}
	if env.Type != streaming.MsgAccept {
		reason := string(env.Type)
		if env.Reject != nil {
			reason = env.Reject.Reason
		}
		return nil, fmt.Errorf("%s rejected: %s", req.game, reason)
	}
	sid := env.Accept.SessionID
	conn.SetProto(streaming.NegotiateProto(streaming.ProtoBinary3, env.Accept.Proto))

	tr.beginAt(lay.stream, id)
	defer tr.end()
	var recv streaming.Envelope
	input := streaming.InputBatch{SessionID: sid, Events: 4, Codes: make([]byte, 4)}
	inputEnv := streaming.Envelope{Type: streaming.MsgInput, Input: &input}
	var last time.Time
	frames := 0
	for {
		if err := conn.RecvInto(&recv); err != nil {
			return nil, fmt.Errorf("session %d: %w before its End", sid, err)
		}
		now := time.Now()
		switch recv.Type {
		case streaming.MsgFrames:
			if frames == 0 {
				s.ttffMS = float64(now.Sub(start)) / 1e6
			} else {
				s.gapsMS = append(s.gapsMS, float64(now.Sub(last))/1e6)
			}
			last = now
			frames++
			if frames%2 == 0 {
				input.Seq++
				input.SentAtMS = now.UnixMilli()
				if err := conn.Send(&inputEnv); err != nil {
					return nil, err
				}
			}
		case streaming.MsgEnd:
			if recv.End.SessionID != sid {
				return nil, fmt.Errorf("End for session %d on session %d", recv.End.SessionID, sid)
			}
			if frames == 0 {
				return nil, fmt.Errorf("session %d ended without a frame batch", sid)
			}
			s.wallS = now.Sub(start).Seconds()
			s.virtS = float64(recv.End.DurationSec)
			conn.Release()
			return s, nil
		default:
			return nil, fmt.Errorf("session %d: unexpected %q", sid, recv.Type)
		}
	}
}

// runServe measures routed and direct serving: two closed-loop clients play
// whole sessions back to back until the window is used up. In a traced run
// the clients alternate untraced and traced sessions.
func runServe(cfg runConfig, r *report) error {
	var trainS []float64
	rig, err := timeSetup(r, func() (*serveRig, error) {
		g, err := startServeRig(cfg.seed)
		if err == nil {
			trainS = append(trainS, g.trainS)
		}
		return g, err
	}, (*serveRig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	r.set("core.train_s", median(trainS))

	type client struct {
		addr    string
		routed  bool
		reqs    []sessionReq
		tr      *tracer
		samples []*sessionSample
		errs    []error
		busy    time.Duration // from the first dial to the last session's end
	}
	clients := []*client{
		{addr: rig.coord.Addr(), routed: true, reqs: serveRequests(rig.sys, cfg.seed, 0)},
		{addr: rig.clusters[1].Addr(), reqs: serveRequests(rig.sys, cfg.seed, 1)},
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC()
	cpu0, start := cpuSeconds(), time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		if cfg.trace {
			c.tr = newTracer()
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			defer func() { c.busy = time.Since(start) }()
			prefix := "streaming"
			if c.routed {
				prefix = "coordinator"
			}
			lays := sessionLayers{c.tr.layer("bench.serve_session"), c.tr.layer(prefix + ".admit"), c.tr.layer(prefix + ".stream")}
			var took time.Duration
			for i, req := range c.reqs {
				// Start no session that would likely end past the window.
				if el := time.Since(start); i > 0 && el+took/time.Duration(i) > window {
					return
				}
				traced := cfg.trace && i%2 == 1
				var t *tracer
				if traced {
					t = c.tr
				}
				t0 := time.Now()
				s, err := playSession(c.addr, req, int64(i), t, lays)
				took += time.Since(t0)
				if err != nil {
					c.errs = append(c.errs, err)
					continue
				}
				s.routed, s.traced = c.routed, traced
				c.samples = append(c.samples, s)
			}
		}(c)
	}
	wg.Wait()
	measured, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0

	// Each client's rate runs to its own last End, so the client that
	// finishes first does not count idle time while the other completes.
	var all []*sessionSample
	var rate float64
	for _, c := range clients {
		var virt float64
		for _, s := range c.samples {
			virt += s.virtS
			r.check("session")
		}
		rate += virt / c.busy.Seconds()
		for _, err := range c.errs {
			r.check("session", err.Error())
		}
		all = append(all, c.samples...)
	}
	if len(all) == 0 {
		return errors.New("no session completed")
	}
	var admit, ttff, gaps, wall, routedAdmit, directAdmit, paceU, paceT []float64
	var virt float64
	for _, s := range all {
		virt += s.virtS
		admit = append(admit, s.admitMS)
		ttff = append(ttff, s.ttffMS)
		gaps = append(gaps, s.gapsMS...)
		wall = append(wall, s.wallS)
		if s.routed {
			routedAdmit = append(routedAdmit, s.admitMS)
		} else {
			directAdmit = append(directAdmit, s.admitMS)
		}
		if s.virtS > 0 {
			if s.traced {
				paceT = append(paceT, s.wallS/s.virtS)
			} else {
				paceU = append(paceU, s.wallS/s.virtS)
			}
		}
	}
	r.set("serve.sessions", float64(len(all)))
	r.set("serve.admit_p50_ms", median(admit))
	r.set("serve.admit_tail_ms", quantile(admit, tailQuantile(len(admit))))
	r.set("serve.ttff_p50_ms", median(ttff))
	r.set("serve.gap_tail_ms", quantile(gaps, tailQuantile(len(gaps))))
	r.set("streaming.gap_p50_ms", median(gaps))
	r.set("serve.session_wall_s", median(wall))
	r.set("work_rate", rate)
	r.set("serve.cpu_per_sess_s", cpu/virt)
	fmt.Printf("# serve: %d sessions in %.1f s, admit tail at p%g of %d, gap tail at p%g of %d (nominal gap %d ms)\n",
		len(all), measured, 100*tailQuantile(len(admit)), len(admit), 100*tailQuantile(len(gaps)), len(gaps), serveGapNominal)

	if !cfg.trace {
		return nil
	}
	r.set("coordinator.admit_ms", median(routedAdmit))
	r.set("streaming.admit_ms", median(directAdmit))
	st, err := rig.coordStatus()
	if err != nil {
		return err
	}
	r.set("coordinator.decisions", float64(st.Decisions))
	r.set("coordinator.failovers", float64(st.Failovers))
	var age, fails float64
	for _, m := range st.Clusters {
		age += 1000 * m.SummaryAgeSec / float64(len(st.Clusters))
		fails += float64(m.ProbeFailures)
	}
	r.set("coordinator.summary_age_ms", age)
	r.set("coordinator.probe_failures", fails)
	var sent, coalesced, dropped, summaries float64
	for _, s := range rig.clusters {
		var cs clusterStatus
		if err := readStatus(s.MetricsHandler(), &cs); err != nil {
			return err
		}
		sent += float64(cs.FramesSent)
		coalesced += float64(cs.FramesCoalesced)
		dropped += float64(cs.FramesDropped)
		summaries += float64(cs.SummariesServed)
	}
	r.set("streaming.frames_sent", sent)
	r.set("streaming.frames_coalesced", coalesced)
	r.set("streaming.frames_dropped", dropped)
	r.set("streaming.summaries_served", summaries)

	var unattributed []float64
	tracers := make([]*tracer, len(clients))
	for i, c := range clients {
		tracers[i] = c.tr
		sum := summarize(c.tr)
		if root := sum["bench.serve_session"]; root.TotalS > 0 {
			unattributed = append(unattributed, 100*root.SelfS/root.TotalS)
		}
	}
	return finishTrace(cfg, r, passTimes{wall: paceU}, passTimes{wall: paceT}, unattributed, tracers...)
}
