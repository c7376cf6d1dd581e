package metrics

import "repro/internal/sim"

// ImportSim copies a simulated-execution timeline into the collector's
// Sim domain. The engines call it once per run after the environment
// drains, so simulation hot paths never touch the collector. Nil-safe.
func (c *Collector) ImportSim(tl []sim.Span) {
	if c == nil || len(tl) == 0 {
		return
	}
	c.mu.Lock()
	for _, s := range tl {
		c.spans = append(c.spans, Span{
			Domain: Sim,
			Lane:   s.Lane,
			Label:  s.Label,
			Start:  int64(s.Start),
			End:    int64(s.End),
		})
	}
	c.mu.Unlock()
}
