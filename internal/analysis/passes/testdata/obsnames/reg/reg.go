// Package reg is the obsnames fixture: metric registrations with names
// and labels that break the obs naming conventions.
package reg

import "repro/internal/obs"

const goodName = "ps_requests_total"
const badName = "ps_requests" // counters need _total

func register(r *obs.Registry) {
	r.Counter("ps_slots_total", "good")
	r.Counter(goodName, "constants are checked too")
	r.Counter("bad-name_total", "h") // want "not a valid Prometheus metric name"
	r.Counter("requests_total", "h") // want "missing ps_ prefix"
	r.Counter(badName, "h")          // want "counter without _total suffix"
	r.Gauge("ps_depth_total", "h")   // want "gauge with _total suffix"
	r.Gauge("ps_queue_depth", "good")
	r.Histogram("ps_latency", "h", nil) // want "histogram without a unit suffix"
	r.Histogram("ps_latency_seconds", "good", nil)
	r.CounterVec("ps_http_total", "good", "route", "method")
	r.CounterVec("ps_rpc_total", "h", "route", "__reserved") // want "invalid label name \"__reserved\""
	r.HistogramVec("ps_rpc_seconds", "h", nil, "Route")      // want "invalid label name \"Route\""
	r.CounterFunc("ps_owned_total", "good", nil)
	r.GaugeFunc("ps_owned_total", "h", nil) // want "gauge with _total suffix"
}

// computed names cannot be checked statically; Registry.Validate (and
// the CI naming-lint test) still covers them at runtime.
func dynamic(r *obs.Registry, name string) {
	r.Counter(name, "h")
}
