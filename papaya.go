// Package papaya is a from-scratch Go reproduction of "PAPAYA: Practical,
// Private, and Scalable Federated Learning" (Huba et al., MLSys 2022):
// Meta's production federated-learning system supporting both synchronous
// and buffered-asynchronous (FedBuff) training with TEE-based asynchronous
// secure aggregation.
//
// This root package is the public facade. It re-exports the pieces a
// downstream user composes:
//
//   - Training runs: Config/Run execute AsyncFL (FedBuff) or SyncFL over a
//     discrete-event simulation of a heterogeneous device fleet, returning
//     the loss curves, communication counts, utilization traces, and
//     fairness samples the paper's evaluation reports. Client local SGD
//     executes on a parallel worker pool (Config.Workers, default
//     GOMAXPROCS) feeding sharded aggregation (Config.AggShards); results
//     are bit-for-bit identical for any worker count, so parallelism is
//     purely a wall-clock knob (benchmark/ measures the speedup as
//     core.workers_speedup).
//   - Workload: NewPopulation models ~10^8 devices with correlated
//     speed/data-volume heterogeneity; NewCorpus generates the non-IID
//     federated language corpus; NewBilinearLM / NewLSTMLM are pure-Go
//     trainable language models.
//   - Secure aggregation: NewSecAggDeployment launches the Trusted Secure
//     Aggregator in a simulated SGX enclave with attestation and a
//     verifiable binary log; clients mask updates with one-time pads whose
//     16-byte seeds are the only per-client data crossing the enclave
//     boundary.
//   - Production control plane: NewCoordinator / NewAggregator /
//     NewSelector and the client Runtime run the paper's Section 4
//     architecture on real goroutines with heartbeats, failover, and
//     sequence-numbered assignment maps — over any Fabric: the in-memory
//     Network here, or real HTTP between OS processes via `papaya serve`,
//     `papaya agent`, and `papaya loadtest` (see docs/DEPLOYMENT.md).
//   - Experiments: Experiments() lists a regenerator for every table and
//     figure in Section 7.
//
// See examples/ for runnable entry points and DESIGN.md for the system
// inventory.
package papaya

import (
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/fedopt"
	"repro/internal/lmdata"
	"repro/internal/nn"
	"repro/internal/population"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/tee"
	"repro/internal/transport"
)

// Training orchestration (the paper's Section 3).
type (
	// Config parameterizes one federated training run.
	Config = core.Config
	// Result captures everything a run reports.
	Result = core.Result
	// Algorithm selects AsyncFL (FedBuff) or SyncFL.
	Algorithm = core.Algorithm
)

// Algorithms.
const (
	// Async is FedBuff: buffered asynchronous aggregation.
	Async = core.Async
	// Sync is round-based training with optional over-selection.
	Sync = core.Sync
)

// Run executes one federated training run over the event simulator.
func Run(model Model, corpus *Corpus, pop *Population, cfg Config) *Result {
	return core.Run(model, corpus, pop, cfg)
}

// Workload substrates.
type (
	// Population is the heterogeneous device fleet.
	Population = population.Population
	// PopulationConfig parameterizes the fleet.
	PopulationConfig = population.Config
	// Client is one device's derived attributes.
	Client = population.Client
	// Corpus is the synthetic non-IID federated language corpus.
	Corpus = lmdata.Corpus
	// CorpusConfig parameterizes the corpus.
	CorpusConfig = lmdata.Config
	// Model is a trainable next-token language model.
	Model = nn.Model
	// SGDConfig configures client-side local training.
	SGDConfig = nn.SGDConfig
)

// NewPopulation builds a device fleet; see DefaultPopulationConfig.
func NewPopulation(cfg PopulationConfig) *Population { return population.New(cfg) }

// DefaultPopulationConfig matches the paper's measured heterogeneity.
func DefaultPopulationConfig() PopulationConfig { return population.DefaultConfig() }

// NewCorpus builds the synthetic federated corpus.
func NewCorpus(cfg CorpusConfig) *Corpus { return lmdata.NewCorpus(cfg) }

// DefaultCorpusConfig sizes the corpus for fast sweeps.
func DefaultCorpusConfig() CorpusConfig { return lmdata.DefaultConfig() }

// NewBilinearLM returns the log-bilinear language model used in the large
// experiment sweeps.
func NewBilinearLM(vocab, dim int) Model { return nn.NewBilinear(vocab, dim) }

// NewLSTMLM returns the LSTM language model (the paper's architecture
// family).
func NewLSTMLM(vocab, embed, hidden int) Model { return nn.NewLSTM(vocab, embed, hidden) }

// DefaultSGDConfig is the paper's client setup: one epoch, batch size 32.
func DefaultSGDConfig() SGDConfig { return nn.DefaultSGDConfig() }

// Perplexity converts mean per-token NLL to perplexity.
func Perplexity(loss float64) float64 { return nn.Perplexity(loss) }

// Server optimizers (Reddi et al. 2020).
type (
	// Optimizer applies aggregated updates to the server model.
	Optimizer = fedopt.Optimizer
)

// NewFedAdam returns the paper's server optimizer with explicit
// hyperparameters.
func NewFedAdam(lr, beta1, beta2, eps float64) Optimizer {
	return fedopt.NewFedAdam(lr, beta1, beta2, eps)
}

// NewFedSGD returns plain server SGD (FedAvg when lr=1).
func NewFedSGD(lr float64) Optimizer { return fedopt.NewFedSGD(lr) }

// NewFedAvgM returns server-momentum SGD.
func NewFedAvgM(lr, beta float64) Optimizer { return fedopt.NewFedAvgM(lr, beta) }

// DPConfig enables the central differential-privacy extension (clipped
// client updates + Gaussian noise on every released aggregate, with zCDP
// accounting) via Config.DP. The paper's conclusion names this as the
// system's planned extension.
type DPConfig = dp.Config

// Secure aggregation (the paper's Section 5 and Appendices B-D).
type (
	// SecAggParams are the public protocol parameters.
	SecAggParams = secagg.Params
	// SecAggDeployment is a launched TSA-in-enclave installation.
	SecAggDeployment = secagg.Deployment
	// SecAggUpload is a client's masked contribution.
	SecAggUpload = secagg.Upload
	// TEECostModel calibrates enclave boundary-crossing costs.
	TEECostModel = tee.CostModel
)

// NewSecAggDeployment launches a Trusted Secure Aggregator built from the
// given trusted binary inside a metered enclave, publishing the binary to a
// fresh verifiable log.
func NewSecAggDeployment(params SecAggParams, binary []byte, cost TEECostModel, random RandomSource) (*SecAggDeployment, error) {
	return secagg.NewDeployment(params, binary, cost, random)
}

// SecAggClientTrust is a client's pinned trust material (collateral + log
// snapshot + parameters).
type SecAggClientTrust = secagg.ClientTrust

// SecAggClientSession is one client's validated protocol session.
type SecAggClientSession = secagg.ClientSession

// SecAggInitialBundle is the server-relayed check-in material (DH initial
// message, quote, log evidence).
type SecAggInitialBundle = secagg.InitialBundle

// NewSecAggClientSession validates an initial bundle end to end (log
// inclusion, attestation quote, parameter hash, DH signature) and completes
// the key exchange. Any failed check aborts.
func NewSecAggClientSession(trust SecAggClientTrust, bundle SecAggInitialBundle, random RandomSource) (*SecAggClientSession, error) {
	return secagg.NewClientSession(trust, bundle, random)
}

// DefaultTEECostModel reproduces the boundary throughput behind Figure 6.
func DefaultTEECostModel() TEECostModel { return tee.DefaultCostModel() }

// RandomSource is an entropy source (e.g. crypto/rand.Reader).
type RandomSource = interfaceReader

type interfaceReader interface {
	Read(p []byte) (n int, err error)
}

// Production control plane (the paper's Section 4).
type (
	// Fabric is the RPC surface the control plane runs over; the in-memory
	// Network and the HTTP backend (internal/transport/httptransport) both
	// implement it.
	Fabric = transport.Fabric
	// Network is the in-memory RPC fabric with fault injection.
	Network = transport.Network
	// Coordinator is the singleton control node.
	Coordinator = server.Coordinator
	// Aggregator is a persistent aggregation node.
	Aggregator = server.Aggregator
	// Selector fronts client traffic.
	Selector = server.Selector
	// TaskSpec describes one FL task.
	TaskSpec = server.TaskSpec
	// Timings groups control-plane intervals.
	Timings = server.Timings
	// DeviceRuntime is the edge client runtime.
	DeviceRuntime = client.Runtime
	// DeviceState is the eligibility condition set.
	DeviceState = client.DeviceState
	// ExampleStore is the on-device training-data store.
	ExampleStore = client.ExampleStore
)

// NewNetwork creates the in-memory fabric.
func NewNetwork(seed int64) *Network { return transport.NewNetwork(seed) }

// NewCoordinator starts the singleton coordinator on any Fabric.
func NewCoordinator(name string, net Fabric, timings Timings, seed int64, recovering bool) *Coordinator {
	return server.NewCoordinator(name, net, timings, seed, recovering)
}

// NewAggregator starts an aggregation node reporting to the coordinator.
func NewAggregator(name string, net Fabric, coordinator string, timings Timings) *Aggregator {
	return server.NewAggregator(name, net, coordinator, timings)
}

// NewSelector starts a selector node.
func NewSelector(name string, net Fabric, coordinator string, timings Timings) *Selector {
	return server.NewSelector(name, net, coordinator, timings)
}

// DefaultTimings returns production-flavoured control-plane intervals.
func DefaultTimings() Timings { return server.DefaultTimings() }

// NewExampleStore creates an on-device store with the given retention
// policy.
func NewExampleStore(maxCount int, maxAge time.Duration) *ExampleStore {
	return client.NewExampleStore(maxCount, maxAge)
}

// Experiments (the paper's Section 7).
type (
	// Experiment regenerates one table or figure.
	Experiment = experiments.Experiment
	// ExperimentScale is a size preset.
	ExperimentScale = experiments.Scale
	// ExperimentTable is an experiment's output.
	ExperimentTable = experiments.Table
)

// Experiments lists a regenerator for every table and figure in the paper.
func Experiments() []Experiment { return experiments.Registry() }

// ScaleSmall runs every experiment in seconds (tests).
func ScaleSmall() ExperimentScale { return experiments.ScaleSmall() }

// ScalePaper uses the paper's concurrency range and goals.
func ScalePaper() ExperimentScale { return experiments.ScalePaper() }
