// Package repro is a from-scratch Go implementation of the system
// described in "Intra-Disk Parallelism: An Idea Whose Time Has Come"
// (Sankar, Gurumurthi, Stan — ISCA 2008): a detailed event-driven disk
// drive simulator with electro-mechanical power models, multi-actuator
// (intra-disk parallel) drive models expressed in the paper's DASH
// taxonomy, RAID array models, workload synthesizers shaped like the
// paper's commercial traces, and experiment drivers that regenerate every
// table and figure of the paper's evaluation.
//
// This file is the public facade: it re-exports the library's stable
// surface so applications can depend on a single import. The underlying
// packages live in internal/ and are documented individually.
//
// # Quick start
//
//	eng := repro.NewEngine()
//	drv, err := repro.NewSADrive(eng, repro.BarracudaES(), 4) // HC-SD-SA(4)
//	if err != nil { ... }
//	var resp repro.Sample
//	eng.At(0, func() {
//	    drv.Submit(repro.Request{LBA: 0, Sectors: 8, Read: true},
//	        func(at float64) { resp.Add(at) })
//	})
//	eng.Run()
package repro

import (
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/raid"
	"repro/internal/simkit"
	"repro/internal/smart"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Simulation engine.

// Engine is the discrete-event simulation clock all devices share.
type Engine = simkit.Engine

// NewEngine returns an empty engine with the clock at time zero.
func NewEngine() *Engine { return simkit.New() }

// ---------------------------------------------------------------------
// Requests, traces and workloads.

// Request is one I/O request presented to a storage device.
type Request = trace.Request

// WorkloadSpec parameterizes one of the paper's commercial workloads.
type WorkloadSpec = trace.WorkloadSpec

// The paper's four commercial workloads (Table 2).
var (
	Financial = trace.Financial
	Websearch = trace.Websearch
	TPCC      = trace.TPCC
	TPCH      = trace.TPCH
	Workloads = trace.Workloads
)

// NewTraceGenerator streams a workload trace's synthesis one request
// at a time; the same (spec, seed) pair always yields the same stream.
var NewTraceGenerator = trace.NewGenerator

// TraceStream is a pull-based request stream; trace readers, workload
// generators, and remapped streams all implement it.
type TraceStream = trace.Stream

// TraceFormat identifies an on-disk trace format (native, spc, msr,
// blkparse).
type TraceFormat = trace.Format

// TraceReader is a streaming O(1)-memory trace ingester for any
// supported on-disk format, with unit normalization and arrival-order
// enforcement at the ingestion boundary.
type TraceReader = trace.Reader

// TraceReaderOpts tunes ingestion (e.g. the bounded reordering window
// for near-sorted captures).
type TraceReaderOpts = trace.ReaderOpts

// OpenTrace sniffs the format of the trace on r and returns a
// streaming reader for it; OpenTraceFile does the same for a path (the
// caller owns Close).
var (
	OpenTrace     = trace.Open
	OpenTraceFile = trace.OpenFile
)

// TraceStreamErr reports the terminal error of a stream that carries
// one (ingestion failures); plain streams report nil.
var TraceStreamErr = trace.Err

// AnalyzeTraceStream computes a trace's statistics in one streaming
// pass; FitWorkload inverts the synthesizer's parameterization against
// a streamed profile (ProfileTraceStream).
var (
	AnalyzeTraceStream = trace.AnalyzeStream
	ProfileTraceStream = trace.ProfileStream
	FitWorkload        = trace.FitWorkload
)

// SyntheticSpec parameterizes the §7.3 synthetic streams.
type SyntheticSpec = workload.Spec

// Intensity names the paper's three synthetic load levels.
type Intensity = workload.Intensity

// The paper's load levels (8, 4 and 1 ms mean inter-arrival).
const (
	Light    = workload.Light
	Moderate = workload.Moderate
	Heavy    = workload.Heavy
)

// PaperSynthetic returns the §7.3 synthetic workload spec.
func PaperSynthetic(in Intensity, capacitySectors int64) SyntheticSpec {
	return workload.Paper(in, capacitySectors)
}

// NewSyntheticGenerator streams a §7.3 synthetic workload one request
// at a time; the same (spec, seed) pair always yields the same stream.
var NewSyntheticGenerator = workload.NewGenerator

// ---------------------------------------------------------------------
// Drive models and devices.

// Device is any simulated storage device: a drive or an array.
type Device = device.Device

// Done is a request-completion callback.
type Done = device.Done

// DriveModel is the static description of a drive product.
type DriveModel = disk.Model

// Named drive models used throughout the paper's evaluation.
var (
	// BarracudaES is the paper's 750 GB high-capacity drive (HC-SD).
	BarracudaES = disk.BarracudaES
	// Drive10K18GB is the Financial/Websearch arrays' member drive.
	Drive10K18GB = disk.Drive10K18GB
	// Drive10K37GB is the TPC-C array's member drive.
	Drive10K37GB = disk.Drive10K37GB
	// Drive7200x36GB is the TPC-H array's member drive.
	Drive7200x36GB = disk.Drive7200x36GB
)

// Drive is the drive engine; NewDrive builds it as a conventional
// single-actuator drive.
type Drive = disk.Drive

// DriveOptions tunes a drive. Its zero value is a conventional drive.
type DriveOptions = disk.Options

// ZeroedScale marks a seek/rotation scale of exactly zero (Figure 4's
// S=0 and R=0 cases); an unset scale means 1.0.
const ZeroedScale = disk.ZeroedScale

// NewDrive attaches a conventional drive to the engine.
func NewDrive(eng *Engine, model DriveModel, opts DriveOptions) (*Drive, error) {
	return disk.New(eng, model, opts)
}

// ---------------------------------------------------------------------
// Intra-disk parallelism (the paper's contribution).

// DASH names a design point in the paper's taxonomy (Dk·Al·Sm·Hn).
type DASH = core.DASH

// ParseDASH parses a canonical taxonomy name such as "D1A4S1H1".
func ParseDASH(s string) (DASH, error) { return core.ParseDASH(s) }

// SATaxonomy returns the taxonomy point of the paper's HC-SD-SA(n)
// family: D1·An·S1·H1.
func SATaxonomy(n int) DASH { return core.SA(n) }

// ParallelDrive is an intra-disk parallel (multi-actuator) drive.
type ParallelDrive = core.ParallelDrive

// ParallelConfig configures a parallel drive, including the relaxed
// multi-arm-motion and multi-channel variants and arm placement: the
// drive options, with Actuators required.
type ParallelConfig = core.Config

// NewParallelDrive attaches a configured parallel drive to the engine.
func NewParallelDrive(eng *Engine, model DriveModel, cfg ParallelConfig) (*ParallelDrive, error) {
	return core.New(eng, model, cfg)
}

// NewSADrive attaches the paper's HC-SD-SA(n) design point: n actuators,
// single arm in motion, single data channel, SPTF scheduling.
func NewSADrive(eng *Engine, model DriveModel, actuators int) (*ParallelDrive, error) {
	return core.NewSA(eng, model, actuators)
}

// ---------------------------------------------------------------------
// Arrays.

// Layout maps array-level requests onto member disks.
type Layout = raid.Layout

// Array is a storage array over member devices; it is itself a Device.
type Array = raid.Array

// Array layout constructors.
var (
	NewJBOD  = raid.NewJBOD
	NewRAID0 = raid.NewRAID0
	NewRAID1 = raid.NewRAID1
	NewRAID5 = raid.NewRAID5
)

// NewArray binds a layout to its member devices.
func NewArray(layout Layout, members []Device) (*Array, error) {
	return raid.NewArray(layout, members)
}

// ---------------------------------------------------------------------
// Statistics and power.

// Sample accumulates observations (response times, latencies).
type Sample = stats.Sample

// Summary is a compact numeric summary of a sample.
type Summary = stats.Summary

// PowerBreakdown is a per-mode average-power decomposition.
type PowerBreakdown = power.Breakdown

// ResponseBucketEdgesMs are the paper's response-time CDF bucket edges.
var ResponseBucketEdgesMs = stats.ResponseBucketEdgesMs

// ---------------------------------------------------------------------
// Experiments (tables and figures).

// ExperimentConfig scales the paper's experiments.
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig returns the standard experiment scale.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// Experiment drivers, one per table/figure group; see internal/experiments.
var (
	RunLimitStudy       = experiments.LimitStudy       // Figures 2-3
	RunBottleneck       = experiments.Bottleneck       // Figure 4
	RunMultiActuator    = experiments.MultiActuator    // Figure 5
	RunReducedRPM       = experiments.ReducedRPM       // Figures 6-7
	RunRAIDStudy        = experiments.RAIDStudy        // Figure 8
	RunDegradationStudy = experiments.DegradationStudy // §8 fault study
)

// DegradationResult is one workload's §8 graceful-degradation study.
type DegradationResult = experiments.DegradationResult

// DegradationRun is one degradation scenario's measurement.
type DegradationRun = experiments.DegradationRun

// WriteDegradationTable renders a degradation study as text.
var WriteDegradationTable = experiments.WriteDegradationTable

// DefaultDegradationDepths returns the rebuild depths the study sweeps.
var DefaultDegradationDepths = experiments.DefaultDegradationDepths

// ---------------------------------------------------------------------
// Observability (internal/obs).

// Instrumented is the uniform statistics surface: any component that
// reports a StatsSnapshot. All devices in this library implement it.
type Instrumented = device.Instrumented

// StatsSnapshot is the typed statistics snapshot every instrumented
// component returns; composite devices nest members as children.
type StatsSnapshot = obs.Snapshot

// TraceEvent is one span of a request's lifecycle
// (submit/queue/seek/rotate/transfer/complete, with actuator ids).
type TraceEvent = obs.Event

// TraceSink receives span events; wire one into a drive's options to
// trace its requests (nil = tracing off at zero cost).
type TraceSink = obs.Sink

// ObsOptions is the observability hookup a device constructor accepts.
type ObsOptions = obs.Options

// Observe selects what experiment runs record (trace and/or metrics).
type Observe = experiments.Observe

// NewJSONLTraceSink streams span events as JSON lines.
var NewJSONLTraceSink = obs.NewJSONLSink

// MemoryTraceSink buffers span events in memory.
type MemoryTraceSink = obs.MemorySink

// TraceLifecycles reconstructs per-request time decompositions from a
// span stream.
var TraceLifecycles = obs.Lifecycles

// MergeSnapshots folds per-job snapshots into one deterministic
// roll-up, in submission order.
var MergeSnapshots = fleet.MergeSnapshots

// WriteSnapshotText renders a snapshot as an indented text tree.
var WriteSnapshotText = obs.WriteText

// ---------------------------------------------------------------------
// Cost model (§9).

// CostRange is a low/high price band in US dollars.
type CostRange = cost.Range

// DriveCost reports the material-cost band of a drive (Table 9a).
func DriveCost(platters, actuators int) (CostRange, error) {
	return cost.DriveCost(platters, actuators)
}

// IsoPerformanceCosts evaluates Figure 9(b)'s three configurations.
func IsoPerformanceCosts() ([]CostRange, error) { return cost.IsoPerformanceCosts() }

// ---------------------------------------------------------------------
// Reliability extensions (§8 machinery).

// SMARTMonitor tracks one component's health attributes and predicts
// impending failure (internal/smart).
type SMARTMonitor = smart.Monitor

// SMARTSentry polls monitors on the simulation clock and reports
// predicted failures, e.g. to ParallelDrive.FailArm.
type SMARTSentry = smart.Sentry

// SMARTAttribute identifies a monitored health metric.
type SMARTAttribute = smart.Attribute

// Monitored attributes relevant to the arm/head assembly.
const (
	ReallocatedSectors = smart.ReallocatedSectors
	SeekErrorRate      = smart.SeekErrorRate
	SpinRetries        = smart.SpinRetries
	HeadFlyingHours    = smart.HeadFlyingHours
)

// NewSMARTMonitor builds a healthy monitor (nil thresholds = defaults).
func NewSMARTMonitor(seed int64, thresholds map[SMARTAttribute]float64) *SMARTMonitor {
	return smart.NewMonitor(seed, thresholds)
}

// NewSMARTSentry builds a sentry polling the monitors every periodMs.
func NewSMARTSentry(eng *Engine, monitors []*SMARTMonitor, periodMs float64, onPredict func(int)) (*SMARTSentry, error) {
	return smart.NewSentry(eng, monitors, periodMs, onPredict)
}

// FaultSpec declaratively describes a fault scenario: latent sector
// errors, SMART attribute-drift onsets, actuator deconfigurations, and
// a whole-member death with its rebuild (internal/fault).
type FaultSpec = fault.Spec

// Fault-scenario building blocks for FaultSpec.
type (
	FaultSectorErrors = fault.SectorErrors
	FaultDrift        = fault.Drift
	FaultArm          = fault.ArmFault
	FaultDeath        = fault.Death
)

// FaultPlan is a compiled, time-ordered fault schedule.
type FaultPlan = fault.Plan

// CompileFaults draws a spec's randomized elements from the seed and
// flattens the scenario into a deterministic plan.
var CompileFaults = fault.Compile

// FaultTargets binds each fault class to the component it acts on.
type FaultTargets = fault.Targets

// FaultInjector arms a compiled plan on an engine and applies each
// event at its planned simulated timestamp.
type FaultInjector = fault.Injector

// NewFaultInjector validates the plan's targets and builds an injector;
// call Schedule before running the engine.
func NewFaultInjector(eng *Engine, plan FaultPlan, targets FaultTargets, ob ObsOptions) (*FaultInjector, error) {
	return fault.NewInjector(eng, plan, targets, ob)
}

// ThermalEnvelope is the steady-state drive thermal model that motivates
// the paper's "spindle speeds will not rise" premise (internal/thermal).
type ThermalEnvelope = thermal.Envelope

// DefaultThermalEnvelope returns the calibrated server-enclosure
// envelope.
func DefaultThermalEnvelope() ThermalEnvelope { return thermal.Default() }

// ---------------------------------------------------------------------
// Baselines and substrates beyond the paper's core evaluation.

// DRPMDrive is the dynamic-RPM drive — the related-work power-management
// baseline: the one drive engine with a spindle-speed ladder.
type DRPMDrive = disk.Drive

// DRPMConfig tunes the DRPM policy (RPM ladder, idle threshold,
// spin-up trigger, transition time).
type DRPMConfig = disk.DRPMConfig

// NewDRPMDrive attaches a DRPM drive built from the base model.
func NewDRPMDrive(eng *Engine, model DriveModel, cfg DRPMConfig) (*DRPMDrive, error) {
	return disk.NewDRPM(eng, model, cfg)
}

// Bus is a shared storage interconnect with finite bandwidth.
type Bus = bus.Bus

// NewBus builds a bus with the given bandwidth (MB/s) and per-transfer
// arbitration overhead (ms).
func NewBus(eng *Engine, bandwidthMBps, overheadMs float64) (*Bus, error) {
	return bus.New(eng, bandwidthMBps, overheadMs)
}

// AttachBus wraps a device so every completion also crosses the bus.
func AttachBus(dev Device, b *Bus, sectorBytes int) (Device, error) {
	return bus.Attach(dev, b, sectorBytes)
}

// RunClosedLoop drives a device with a closed-loop client population
// (see experiments.ReplayClosed).
var RunClosedLoop = experiments.ReplayClosed

// CalibrationResult reports how faithfully the synthesizer reproduces a
// real trace: statistical deltas, both replays, and the KS distance
// between their response-time distributions.
type CalibrationResult = experiments.CalibrationResult

// RunCalibrationStudy ingests a real trace, fits synthesizer parameters
// to its streamed profile, and replays both through the same drive;
// WriteCalibrationTable renders the divergence table.
var (
	RunCalibrationStudy   = experiments.CalibrationStudy
	WriteCalibrationTable = experiments.WriteCalibrationTable
)
