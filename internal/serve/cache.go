// Package serve is the experiment-serving layer behind cmd/ebcpd: a
// process-wide content-hash result cache shared by every request (an
// exp.Cache), a bounded priority worker pool with backpressure, the
// HTTP handlers speaking ebcp.runreq/v1 in and ebcp.report/v1 out, and
// the serving telemetry exposed on /metrics. DESIGN.md §10 documents
// the cache-keying, eviction and backpressure contracts.
package serve

import "ebcp/internal/exp"

// Cache is the daemon's process-wide result store. The server hands the
// same Cache to every request's Session, so identical cells are computed
// once across all requests until evicted.
type Cache = exp.Cache

// NewCache creates a store evicting least-recently-used entries once
// stored costs exceed budget bytes (exp.NewCache).
func NewCache(budget int64) *Cache { return exp.NewCache(budget) }
