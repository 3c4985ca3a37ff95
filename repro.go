// Package repro is a from-scratch Go implementation of the system
// described in "Intra-Disk Parallelism: An Idea Whose Time Has Come"
// (Sankar, Gurumurthi, Stan — ISCA 2008): a detailed event-driven disk
// drive simulator with electro-mechanical power models, multi-actuator
// (intra-disk parallel) drive models expressed in the paper's DASH
// taxonomy, RAID array models, workload synthesizers shaped like the
// paper's commercial traces, and experiment drivers that regenerate every
// table and figure of the paper's evaluation.
//
// This file is the public facade: the names the README, the examples
// and the benchmarks use to build drives and arrays, feed them
// workloads or ingested traces, and run the §7 experiments. Everything
// else lives in internal/, whose packages are documented individually,
// and is reached through the cmd/ programs.
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
	"io"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/simkit"
	"repro/internal/stats"
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

// Two of the paper's commercial workloads (Table 2) by name; Workloads
// returns all four.
var (
	Websearch = trace.Websearch
	TPCH      = trace.TPCH
	Workloads = trace.Workloads
)

// NewTraceGenerator streams a workload trace's synthesis one request
// at a time; the same (spec, seed) pair always yields the same stream.
var NewTraceGenerator = trace.NewGenerator

// TraceReader is a streaming O(1)-memory trace ingester for any
// supported on-disk format, with unit normalization and arrival-order
// enforcement at the ingestion boundary.
type TraceReader = trace.Reader

// TraceReaderOpts tunes ingestion (e.g. the bounded reordering window
// for near-sorted captures).
type TraceReaderOpts = trace.ReaderOpts

// OpenTrace sniffs the format of the trace on r and returns a
// streaming reader for it.
func OpenTrace(r io.Reader, opts TraceReaderOpts) (*TraceReader, error) {
	return trace.Open(r, opts)
}

// OpenTraceFile is OpenTrace for a path; the caller owns Close.
func OpenTraceFile(path string, opts TraceReaderOpts) (*TraceReader, error) {
	return trace.OpenFile(path, opts)
}

// AnalyzeTraceStream computes a trace's statistics in one streaming
// pass.
var AnalyzeTraceStream = trace.AnalyzeStream

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

// DriveModel is the static description of a drive product.
type DriveModel = disk.Model

// BarracudaES is the paper's 750 GB high-capacity drive (HC-SD).
var BarracudaES = disk.BarracudaES

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

// ParallelDrive is an intra-disk parallel (multi-actuator) drive.
type ParallelDrive = core.ParallelDrive

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
	NewRAID0 = raid.NewRAID0
	NewRAID5 = raid.NewRAID5
)

// NewArray binds a layout to its member devices.
func NewArray(layout Layout, members []Device) (*Array, error) {
	return raid.NewArray(layout, members)
}

// ---------------------------------------------------------------------
// Statistics and observability.

// Sample accumulates observations (response times, latencies).
type Sample = stats.Sample

// Instrumented is the uniform statistics surface: any component that
// reports a StatsSnapshot. All devices in this library implement it.
type Instrumented = device.Instrumented

// StatsSnapshot is the typed statistics snapshot every instrumented
// component returns; composite devices nest members as children.
type StatsSnapshot = obs.Snapshot

// ---------------------------------------------------------------------
// Experiments (tables and figures).

// ExperimentConfig scales the paper's experiments.
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig returns the standard experiment scale.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// Experiment drivers for the §7 studies; cmd/idpbench runs every table
// and figure.
var (
	RunLimitStudy    = experiments.LimitStudy    // Figures 2-3
	RunMultiActuator = experiments.MultiActuator // Figure 5
	RunReducedRPM    = experiments.ReducedRPM    // Figures 6-7
)
