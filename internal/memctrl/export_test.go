package memctrl

// EngineOf returns the engine a mechanism built on h (nil if none), so the
// external differential test can cross-check it.
func EngineOf(h *Host) *Engine { return h.engine }
