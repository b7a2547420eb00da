package entangle

// StatsSnapshot is the engine counter set in serializable form: the
// engine's own JSON-tagged Stats plus the service-layer counters, shared by
// the network server's stats frame and the shell's \stats meta command, so
// every surface reports the same quantities under the same names.
type StatsSnapshot struct {
	Stats

	// Service-layer counters, filled in by server.Server.StatsSnapshot
	// (always zero for an embedded DB — the engine itself never sheds,
	// retries, or injects faults).
	Sheds          int64 `json:"sheds"`
	Retries        int64 `json:"retries"`
	Reconnects     int64 `json:"reconnects"`
	FaultsInjected int64 `json:"faults_injected"`
}

// StatsSnapshot returns the engine counters in serializable form.
func (db *DB) StatsSnapshot() StatsSnapshot { return StatsSnapshot{Stats: db.engine.Stats()} }
