package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/simclock"
)

// The fleet-day shape. The prototype CoCG deployment had 32 servers; the
// arrival rate follows a daily cosine between 0.01/s (at 08:00) and 0.11/s
// (at 20:00), which keeps the fleet under capacity at night and briefly
// over it at the evening peak, so the run both admits and queues.
const (
	fleetServers   = 32
	fleetDay       = 24 * simclock.Hour
	fleetRateLow   = 0.01
	fleetRateHigh  = 0.11
	fleetPeakAt    = 20 * simclock.Hour
	fleetStarve    = 5 * simclock.Minute
	fleetPollEvery = 50 // simulated seconds between FleetLoadInto polls
)

// fleetRate is the expected arrivals per second at simulated time t.
func fleetRate(t simclock.Seconds) float64 {
	phase := 2 * math.Pi * float64(t-fleetPeakAt) / float64(fleetDay)
	return fleetRateLow + (fleetRateHigh-fleetRateLow)*(1+math.Cos(phase))/2
}

// fleetSchedule draws the day's Poisson arrivals from the seed: per second
// a Poisson count at fleetRate, each arrival a uniformly chosen game from
// the system's workload generator. The result is ascending in Submitted.
func fleetSchedule(sys *core.System, seed int64) []platform.Arrival {
	rng := rand.New(rand.NewSource(seed))
	gen := sys.Generator(seed + 7)
	games := gamesim.AllGames()
	var out []platform.Arrival
	for t := simclock.Seconds(0); t < fleetDay; t++ {
		// Knuth's method: the rate is well below 1, so the loop is short.
		limit, k, p := math.Exp(-fleetRate(t)), 0, rng.Float64()
		for p > limit {
			k++
			p *= rng.Float64()
		}
		for i := 0; i < k; i++ {
			a := gen.Next(games[rng.Intn(len(games))])
			a.Submitted = t
			out = append(out, a)
		}
	}
	return out
}

// fleetOutcome is what one simulated day produced. Every field but the host
// timings is a simulated quantity and must repeat exactly for a schedule.
type fleetOutcome struct {
	WallS, CPUS float64 // host wall and process CPU seconds for the day
	SessSecs    float64 // simulated session-seconds executed

	Submitted, Placements, RejectedTicks, Failed int
	Completed, Running, PendingEnd, PendingPeak  int
	PendingSum                                   int64
	Throughput, DegradedPct, ViolatedPct         float64
	WaitMeanS                                    float64
	Digest                                       string // of records, counters and the final queue
}

// newFleetCluster builds the day's cluster; with a tracer the policy is the
// timing decorator around the CoCG distributor.
func newFleetCluster(sys *core.System, tr *tracer) (*platform.Cluster, error) {
	policy := sys.Policy(core.PolicyCoCG)
	if tr != nil {
		var err error
		if policy, err = newTimedPolicy(policy, tr); err != nil {
			return nil, err
		}
	}
	c := platform.NewCluster(fleetServers, policy)
	c.StarveLimit = fleetStarve
	return c, nil
}

// runFleetDay simulates one day second by second with Submit + Tick, the
// way cocg-sim does, polling the fleet summary every fleetPollEvery seconds.
func runFleetDay(sys *core.System, sched []platform.Arrival, tr *tracer) (*fleetOutcome, *platform.Cluster, error) {
	c, err := newFleetCluster(sys, tr)
	if err != nil {
		return nil, nil, err
	}
	fs, ok := c.Policy.(platform.FleetSummarizer)
	if !ok {
		return nil, nil, fmt.Errorf("fleet-day: policy %s has no fleet summary", c.Policy.Name())
	}
	var (
		load    platform.FleetLoad
		out     = &fleetOutcome{}
		idx     int
		layDay  = tr.layer("bench.fleet_day")
		layTick = tr.layer("platform.tick")
		laySub  = tr.layer("platform.submit")
	)
	tr.beginAt(layDay, -1)
	cpu0, start := cpuSeconds(), time.Now()
	for now := simclock.Seconds(0); now < fleetDay; now++ {
		for idx < len(sched) && sched[idx].Submitted == now {
			tr.beginAt(laySub, int64(idx))
			c.Submit(sched[idx])
			tr.end()
			idx++
		}
		tr.beginAt(layTick, -1)
		c.Tick()
		tr.end()
		if n := len(c.Pending); n > 0 {
			out.PendingSum += int64(n)
			if n > out.PendingPeak {
				out.PendingPeak = n
			}
		}
		if now%fleetPollEvery == 0 {
			fs.FleetLoadInto(c.Servers, &load)
		}
	}
	out.WallS, out.CPUS = time.Since(start).Seconds(), cpuSeconds()-cpu0
	tr.end()
	out.Submitted = idx
	fillFleetOutcome(out, c)
	return out, c, nil
}

// fillFleetOutcome derives the simulated results from the finished cluster.
func fillFleetOutcome(out *fleetOutcome, c *platform.Cluster) {
	recs := c.Records()
	q := platform.Summarize(recs)
	out.Placements, out.RejectedTicks, out.Failed = c.Placements, c.RejectedTicks, c.FailedPlacements
	out.Completed, out.Running, out.PendingEnd = len(recs), c.RunningSessions(), len(c.Pending)
	out.Throughput = platform.Throughput(recs, nil)
	out.DegradedPct = 100 * q.MeanDegraded
	out.ViolatedPct = 100 * q.ViolatedFrac
	if out.Submitted > 0 {
		out.WaitMeanS = float64(out.PendingSum) / float64(out.Submitted)
	}
	for _, r := range recs {
		out.SessSecs += float64(r.Elapsed)
	}
	for _, srv := range c.Servers {
		for _, h := range srv.Hosted {
			out.SessSecs += float64(h.Session.Elapsed())
		}
	}
	out.Digest = fleetDigest(c)
}

// fleetState is the simulated state two runs of one schedule must agree on
// byte for byte.
type fleetState struct {
	Records                                 []platform.Record
	Placements, RejectedTicks, Failed, Runs int
	Pending                                 []pendingArrival
}

type pendingArrival struct {
	Game        string
	Script      int
	Habit       int64
	SessionSeed int64
	Submitted   simclock.Seconds
}

func fleetStateOf(c *platform.Cluster) fleetState {
	st := fleetState{
		Records:       c.Records(),
		Placements:    c.Placements,
		RejectedTicks: c.RejectedTicks,
		Failed:        c.FailedPlacements,
		Runs:          c.RunningSessions(),
	}
	for _, a := range c.Pending {
		st.Pending = append(st.Pending, pendingArrival{a.Spec.Name, a.Script, a.Habit, a.SessionSeed, a.Submitted})
	}
	return st
}

// fleetStateBytes renders the state with %+v, which prints every float in
// its shortest exact form, so equal bytes mean equal state.
func fleetStateBytes(c *platform.Cluster) []byte {
	return []byte(fmt.Sprintf("%+v", fleetStateOf(c)))
}

func fleetDigest(c *platform.Cluster) string {
	sum := sha256.Sum256(fleetStateBytes(c))
	return fmt.Sprintf("%x", sum[:8])
}

// fleetCheck returns the conservation violations of one day, empty when the
// books balance: every submitted arrival was placed, is still pending, or
// failed placement; every placement completed or is still running.
func fleetCheck(o *fleetOutcome) []string {
	var bad []string
	if o.Submitted != o.Placements+o.PendingEnd+o.Failed {
		bad = append(bad, fmt.Sprintf("submitted %d != placed %d + pending %d + failed %d",
			o.Submitted, o.Placements, o.PendingEnd, o.Failed))
	}
	if o.Placements != o.Completed+o.Running {
		bad = append(bad, fmt.Sprintf("placed %d != completed %d + running %d",
			o.Placements, o.Completed, o.Running))
	}
	return bad
}

// runFleet times core.Train as set-up, draws the day's schedule from the
// seed, then replays the day on a fresh cluster pass after pass. Every pass
// must balance its books and reproduce the first pass's state exactly.
func runFleet(cfg runConfig, r *report) error {
	sys, err := timeSetup(r, func() (*core.System, error) {
		return core.Train(gamesim.AllGames(), core.TrainOptions{Seed: cfg.seed, Workers: 1})
	}, nil)
	if err != nil {
		return err
	}
	r.set("core.train_s", r.values["setup_s"])
	sched := fleetSchedule(sys, cfg.seed)

	var first *fleetOutcome
	var unattributed []float64
	var tracers []*tracer
	var scored, admitted int64
	plain, traced, err := passLoop(cfg, 1, func(_ int, on bool) (float64, float64, error) {
		var tr *tracer
		if on {
			tr = newTracer()
			tracers = append(tracers, tr)
		}
		o, c, err := runFleetDay(sys, sched, tr)
		if err != nil {
			return 0, 0, err
		}
		if tp, ok := c.Policy.(*timedPolicy); ok {
			scored += tp.scored
			admitted += tp.admitted
		}
		bad := fleetCheck(o)
		if first == nil {
			first = o
		} else if o.Digest != first.Digest {
			bad = append(bad, fmt.Sprintf("state digest %s differs from the first pass's %s", o.Digest, first.Digest))
		}
		r.check("fleet day", bad...)
		if on {
			day := summarize(tr)["bench.fleet_day"]
			unattributed = append(unattributed, 100*day.SelfS/o.WallS)
		}
		return o.WallS, o.CPUS, nil
	})
	if err != nil {
		return err
	}
	r.set("work_rate", first.SessSecs/median(plain.cpu))
	r.set("fleet.sess_s_per_s", first.SessSecs/median(plain.wall))
	r.set("fleet.throughput_eq2", first.Throughput)
	r.set("fleet.degraded_pct", first.DegradedPct)
	r.set("fleet.violated_pct", first.ViolatedPct)
	r.set("fleet.wait_mean_s", first.WaitMeanS)
	r.set("platform.placements", float64(first.Placements))
	r.set("platform.rejected_ticks", float64(first.RejectedTicks))
	r.set("platform.pending_peak", float64(first.PendingPeak))
	fmt.Printf("# fleet-day: %d passes; %d arrivals, %d placed, %d completed, %d running, %d pending at the end\n",
		len(plain.wall), first.Submitted, first.Placements, first.Completed, first.Running, first.PendingEnd)
	if !cfg.trace {
		return nil
	}
	sum := summarize(tracers...)
	n := float64(len(tracers))
	for _, name := range []string{"scheduler.prepare", "scheduler.score", "scheduler.new_controller", "scheduler.regulate", "scheduler.fleetload", "platform.submit"} {
		r.set(name+"_s", sum[name].TotalS/n)
	}
	// The scheduler calls made inside a tick are its child spans, so the
	// tick's self time is session stepping, controller ticks and grants.
	tick := sum["platform.tick"]
	r.set("platform.tick_s", tick.TotalS/n)
	r.set("platform.tick_self_s", tick.SelfS/n)
	r.set("platform.tick_calls", float64(tick.Calls)/n)
	r.set("scheduler.score_calls", float64(sum["scheduler.score"].Calls)/n)
	r.set("scheduler.fleetload_calls", float64(sum["scheduler.fleetload"].Calls)/n)
	if scored > 0 {
		r.set("scheduler.score_ok_ratio", float64(admitted)/float64(scored))
	}
	return finishTrace(cfg, r, plain, traced, unattributed, tracers...)
}
