package zcache

import (
	"fmt"

	"zcache/internal/energy"
	"zcache/internal/sim"
	"zcache/internal/workloads"
)

// This file is the facade over the CMP performance model (Table I): the
// execution-driven system with MESI directory coherence, and the
// trace-driven capture/replay pair the OPT studies use.

// SimConfig describes the simulated CMP; PaperSimConfig returns Table I.
type SimConfig = sim.Config

// SimMetrics is a run's activity and bandwidth summary.
type SimMetrics = sim.Metrics

// SimDesign selects the L2 organization inside the simulator.
type SimDesign = sim.Design

// Simulator design points (the Fig. 4/5 comparison space).
const (
	SimSetAssociative       = sim.SetAssocBitSel
	SimSetAssociativeHashed = sim.SetAssocH3
	SimSkewAssociative      = sim.SkewAssoc
	SimZCache2              = sim.ZCacheL2
	SimZCache3              = sim.ZCacheL3
)

// LookupMode selects serial or parallel tag/data access.
type LookupMode = energy.Lookup

// Lookup modes.
const (
	SerialLookup   = energy.Serial
	ParallelLookup = energy.Parallel
)

// PaperSimConfig returns the Table I machine with the given L2 design
// point: 32 in-order cores, 32KB 4-way L1s, 8MB 8-bank shared L2, MESI
// directory, 4 MCUs at 200-cycle zero-load latency and 64GB/s peak.
func PaperSimConfig(design SimDesign, policy PolicyKind, lookup LookupMode, l2Ways int) SimConfig {
	return sim.PaperSystem(design, policy, lookup, l2Ways)
}

// SystemResult bundles the simulator metrics with the energy model's
// evaluation.
type SystemResult struct {
	Metrics SimMetrics
	Eval    energy.Result
}

// RunSystem executes one workload (by suite name) on the configured CMP and
// evaluates timing and energy. It is the programmatic form of `runlab sim`.
func RunSystem(cfg SimConfig, workloadName string) (SystemResult, error) {
	w, ok := workloads.ByName(workloadName)
	if !ok {
		return SystemResult{}, fmt.Errorf("zcache: unknown workload %q", workloadName)
	}
	gens, err := w.Generators(cfg.Cores, cfg.LineBytes, cfg.L2Bytes, cfg.Seed)
	if err != nil {
		return SystemResult{}, err
	}
	return RunSystemWith(cfg, gens)
}

// RunSystemWith executes caller-supplied per-core generators on the
// configured CMP (one generator per core).
func RunSystemWith(cfg SimConfig, gens []Generator) (SystemResult, error) {
	sys, err := sim.NewSystem(cfg, gens)
	if err != nil {
		return SystemResult{}, err
	}
	m, err := sys.Run()
	if err != nil {
		return SystemResult{}, err
	}
	eval, err := evaluate(cfg, m)
	if err != nil {
		return SystemResult{}, err
	}
	return SystemResult{Metrics: m, Eval: eval}, nil
}

// evaluate prices a run's event counts under the paper's system model sized
// to cfg's core count. Every run this package reports is evaluated here.
func evaluate(cfg SimConfig, m SimMetrics) (energy.Result, error) {
	model := energy.NewSystemModel()
	model.Cores = cfg.Cores
	return model.Evaluate(cfg.L2Spec(), m.Counts)
}

// CaptureL2Stream records the L1-filtered L2 reference stream of a workload
// (one simulation of cores + L1s), reusable across L2 designs — the §VI-B
// trace-driven methodology.
func CaptureL2Stream(cfg SimConfig, workloadName string) (*sim.L2Stream, error) {
	w, ok := workloads.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("zcache: unknown workload %q", workloadName)
	}
	gens, err := w.Generators(cfg.Cores, cfg.LineBytes, cfg.L2Bytes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return sim.CaptureL2Stream(cfg, gens)
}

// ReplayL2 replays a captured stream through the configured L2 design under
// any policy, including OPT.
func ReplayL2(cfg SimConfig, stream *sim.L2Stream) (SystemResult, error) {
	m, err := sim.ReplayL2(cfg, stream)
	if err != nil {
		return SystemResult{}, err
	}
	eval, err := evaluate(cfg, m)
	if err != nil {
		return SystemResult{}, err
	}
	return SystemResult{Metrics: m, Eval: eval}, nil
}

// WorkloadNames lists the 72-workload suite.
func WorkloadNames() []string {
	var names []string
	for _, w := range workloads.Suite() {
		names = append(names, w.Name)
	}
	return names
}
