package lock

// ShardCount returns the number of shards.
func (m *Manager) ShardCount() int { return len(m.shards) }

// entryCount returns the number of objects the lock table has an entry for.
func (m *Manager) entryCount() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.locks)
		sh.mu.Unlock()
	}
	return n
}
