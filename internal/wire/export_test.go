package wire

// StartServer hands the test server helper to the external test package:
// probe_test.go drives lab.ProbeTarget, and internal/lab imports wire.
var StartServer = startServer
