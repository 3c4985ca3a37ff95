package par

// InlineLPs exposes the pool threshold to the external tests, so they
// size their windows to reach the pool.
const InlineLPs = inlineLPs
