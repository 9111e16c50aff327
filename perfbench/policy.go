package main

import (
	"fmt"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
)

// fullPolicy is the optional-interface set of the CoCG distributor. The
// timing decorator supports exactly this shape, so the cluster drives the
// decorated policy down the same code paths it drives the bare one.
type fullPolicy interface {
	platform.Policy
	platform.ScratchScorer
	platform.PlacementPreparer
	platform.LoadSummarizer
	platform.FleetSummarizer
	platform.ConcurrentTicker
}

// timedPolicy times every call the cluster and the bench make into the
// scheduler layer. It is used only in traced runs. Its tracer is not safe
// for concurrent use, so a cluster driving it must tick serially (Jobs <= 1).
//
// Controllers are returned unwrapped: the CoCG forecast cache recognises its
// own controllers, and a wrapped one would make every server uncacheable, so
// the traced run would measure a different program.
type timedPolicy struct {
	inner fullPolicy
	tr    *tracer

	prepare, score, newCtl, regulate, fleetLoad int32

	// scored counts servers scored for an arrival, admitted those that
	// would take it.
	scored, admitted int64
}

// timedNoopPolicy adds NoopRegulator, for an inner policy that has it.
type timedNoopPolicy struct {
	*timedPolicy
	platform.NoopRegulator
}

// newTimedPolicy wraps p with span timing into tr.
func newTimedPolicy(p platform.Policy, tr *tracer) (platform.Policy, error) {
	inner, ok := p.(fullPolicy)
	if !ok {
		return nil, fmt.Errorf("timing decorator: policy %s lacks the CoCG optional interfaces", p.Name())
	}
	t := &timedPolicy{
		inner:     inner,
		tr:        tr,
		prepare:   tr.layer("scheduler.prepare"),
		score:     tr.layer("scheduler.score"),
		newCtl:    tr.layer("scheduler.new_controller"),
		regulate:  tr.layer("scheduler.regulate"),
		fleetLoad: tr.layer("scheduler.fleetload"),
	}
	if nr, ok := p.(platform.NoopRegulator); ok {
		return timedNoopPolicy{t, nr}, nil
	}
	return t, nil
}

func (t *timedPolicy) Name() string { return t.inner.Name() }

func (t *timedPolicy) Admit(srv *platform.Server, spec *gamesim.GameSpec, habit int64) bool {
	t.tr.beginAt(t.score, int64(srv.ID))
	ok := t.inner.Admit(srv, spec, habit)
	t.tr.end()
	t.count(ok)
	return ok
}

func (t *timedPolicy) NewController(spec *gamesim.GameSpec, habit int64) (platform.Controller, error) {
	t.tr.beginAt(t.newCtl, -1)
	defer t.tr.end()
	return t.inner.NewController(spec, habit)
}

func (t *timedPolicy) Regulate(srv *platform.Server) {
	t.tr.beginAt(t.regulate, int64(srv.ID))
	t.inner.Regulate(srv)
	t.tr.end()
}

func (t *timedPolicy) Score(srv *platform.Server, spec *gamesim.GameSpec, habit int64) (float64, bool) {
	t.tr.beginAt(t.score, int64(srv.ID))
	s, ok := t.inner.Score(srv, spec, habit)
	t.tr.end()
	t.count(ok)
	return s, ok
}

func (t *timedPolicy) count(ok bool) {
	t.scored++
	if ok {
		t.admitted++
	}
}

func (t *timedPolicy) NewScratch() any { return t.inner.NewScratch() }

func (t *timedPolicy) ScoreScratch(srv *platform.Server, spec *gamesim.GameSpec, habit int64, scratch any) (float64, bool) {
	t.tr.beginAt(t.score, int64(srv.ID))
	s, ok := t.inner.ScoreScratch(srv, spec, habit, scratch)
	t.tr.end()
	t.count(ok)
	return s, ok
}

func (t *timedPolicy) PreparePlacement(servers []*platform.Server) {
	t.tr.beginAt(t.prepare, -1)
	t.inner.PreparePlacement(servers)
	t.tr.end()
}

func (t *timedPolicy) ClusterLoad(servers []*platform.Server) (float64, bool) {
	t.tr.beginAt(t.fleetLoad, -1)
	defer t.tr.end()
	return t.inner.ClusterLoad(servers)
}

func (t *timedPolicy) FleetLoadInto(servers []*platform.Server, out *platform.FleetLoad) bool {
	t.tr.beginAt(t.fleetLoad, -1)
	defer t.tr.end()
	return t.inner.FleetLoadInto(servers, out)
}

func (t *timedPolicy) ConcurrentTickSafe() bool { return t.inner.ConcurrentTickSafe() }
