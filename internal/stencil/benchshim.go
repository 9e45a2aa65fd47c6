package stencil

import (
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs"
)

// Former entry points, kept only because the benchmark module (benchmark/)
// still calls them and changes only with the benchmark itself. Each is a
// one-line forward to Sim or Live; nothing else may call them, and the
// benchmark change that moves to Sim and Live deletes this file.

// SimResult is Result under its former name.
type SimResult = Result

// LiveAdaptiveOptions is Options under its former name.
type LiveAdaptiveOptions = Options

// FTOptions holds the one option the benchmark sets on RunLiveFT.
type FTOptions struct{ WorkFactor []int }

// RunSim is Sim with no options.
func RunSim(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int) (Result, error) {
	return Sim(net, cfg, vec, v, n, iters, Options{})
}

// RunLive is Live with work factors only.
func RunLive(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, workFactor []int) (Result, error) {
	return Live(world, vec, v, n, iters, Options{WorkFactor: workFactor})
}

// RunLiveMonitored is Live with work factors and observation.
func RunLiveMonitored(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, workFactor []int, m *obs.Registry, rec *obs.Recorder, sink obs.CycleSink) (Result, error) {
	return Live(world, vec, v, n, iters, Options{WorkFactor: workFactor, Metrics: m, Trace: rec, Cycles: sink})
}

// RunLiveAdaptive is Live.
func RunLiveAdaptive(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, opts LiveAdaptiveOptions) (Result, error) {
	return Live(world, vec, v, n, iters, opts)
}

// RunLiveFT is Live with default fault tolerance.
func RunLiveFT(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, opts FTOptions) (Result, error) {
	return Live(world, vec, v, n, iters, Options{WorkFactor: opts.WorkFactor, FT: &FT{}})
}
