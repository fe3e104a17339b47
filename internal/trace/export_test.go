package trace

// WriteChunkedN is WriteChunked with chunks of n events, for external
// tests that need chunk boundaries inside small traces.
var WriteChunkedN = writeChunked
