//go:build linux

package main

// api.go is the ONLY file of the benchmark that imports packages of the
// repository. Everything the benchmark depends on is named here, so a
// later PR that reshapes an API can see at a glance whether the benchmark
// of record is affected. The complete surface:
//
//	atmostonce  NewDispatcher, DispatcherConfig, Task, JobResult,
//	            Dispatcher.{Do, Flush, Close, Stats},
//	            Simulate, SimConfig, Tightness, RandomSched,
//	            Run, Config, WriteAll
//	jobd        NewRegistry, Registry.Register, New, Options,
//	            TenantLimits, Server.{Listen, Close}, Dial,
//	            ClientOptions, SubmitOptions, PriorityHigh, Event,
//	            StatusOK, Client.{Submit, Subscribe, Ping, Stats, Close},
//	            IsQuota, IsCapacity
//	netmem      NewServer, ServerOptions.Spec, Server.{Listen, Close}
//	membackend  Open, Backend.{Read, Write, Sync, Close}
//	conc        NewRuntime, RuntimeOptions.{M, Capacity},
//	            Runtime.{RunRound, Close}
//	denseset    NewRange, Set.{Insert, Delete, SelectExcluding, ResetRange}
//	obs         Default, Registry.{WritePrometheus, Histogram},
//	            Histogram.Observe
//
// Deliberately NOT used, because ROADMAP item 3 schedules them for
// deletion or reshaping and later PRs cannot edit this directory: the v1
// Submit* wrappers, Expvar, internal/oset, the *AckedWriter and
// *JournalWriter capabilities, jobd.RunLoad and any cmd/amo-bench code.

import (
	"atmostonce"
	"atmostonce/internal/conc"
	"atmostonce/internal/denseset"
	"atmostonce/internal/jobd"
	"atmostonce/internal/membackend"
	"atmostonce/internal/netmem"
	"atmostonce/internal/obs"
)

type (
	dispatcher       = atmostonce.Dispatcher
	dispatcherConfig = atmostonce.DispatcherConfig
	dispatcherStats  = atmostonce.DispatcherStats
	task             = atmostonce.Task
	jobResult        = atmostonce.JobResult
	simConfig        = atmostonce.SimConfig
	runConfig        = atmostonce.Config

	jobdServer   = jobd.Server
	jobdOptions  = jobd.Options
	jobdClient   = jobd.Client
	jobdEvent    = jobd.Event
	jobdRegistry = jobd.Registry
	tenantLimits = jobd.TenantLimits
	submitOpts   = jobd.SubmitOptions

	regServer = netmem.Server
	backend   = membackend.Backend
	roundPool = conc.Runtime
)

const (
	schedTightness = atmostonce.Tightness
	schedRandom    = atmostonce.RandomSched
	priorityHigh   = jobd.PriorityHigh
	statusOK       = jobd.StatusOK
)

var (
	newDispatcher = atmostonce.NewDispatcher
	simulate      = atmostonce.Simulate
	runBatch      = atmostonce.Run
	writeAll      = atmostonce.WriteAll

	newJobdRegistry = jobd.NewRegistry
	newJobdServer   = jobd.New
	isQuota         = jobd.IsQuota
	isCapacity      = jobd.IsCapacity

	openBackend = membackend.Open
	newDenseSet = denseset.NewRange
	metricsRoot = obs.Default
)

func dialJobd(addr, name string) (*jobdClient, error) {
	return jobd.Dial(addr, jobd.ClientOptions{Name: name})
}

func newRegServer(spec string) *regServer {
	return netmem.NewServer(netmem.ServerOptions{Spec: spec})
}

func newRoundPool(m, capacity int) (*roundPool, error) {
	return conc.NewRuntime(conc.RuntimeOptions{M: m, Capacity: capacity})
}
