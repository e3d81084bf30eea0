package server

// Test fixtures shared with the external server_test package, whose
// tests drive the node through internal/client. The client imports
// this package, so those tests cannot live inside it.
var (
	StartTestServer       = startTestServer
	StartHookedTestServer = startHookedTestServer
	FaultHook             = faultHook
	TenantTestConfig      = tenantTestConfig
	EncodeWalkerTrace     = encodeWalkerTrace
)

const (
	GoldKey   = goldKey
	BronzeKey = bronzeKey
)
