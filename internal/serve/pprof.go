package serve

import (
	"net/http"
	"net/http/pprof"
	"runtime"
)

// MountProfiling registers the net/http/pprof handlers under
// /debug/pprof/ and turns on the two contention profiles the serving
// path is tuned with: the mutex profile (lock hold times — cache shard
// locks, the flight group, the batch pool) and the block profile
// (goroutine wait times — flight waiters, pool queues). Sampling rates
// are fixed at a fraction cheap enough for production one-offs: one in
// 100 mutex contention events, and blocking events of one millisecond
// or longer.
//
// Deliberately not mounted by Registry.Mount: the pprof endpoints
// expose heap contents and symbol tables, so binaries opt in per
// listener (matchd/router -pprof). See
// docs/PERFORMANCE.md#profiling-contention.
func MountProfiling(mux *http.ServeMux) {
	runtime.SetMutexProfileFraction(100)
	runtime.SetBlockProfileRate(int(1e6)) // nanoseconds: sample blocks >= 1ms

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
