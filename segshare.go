// Package segshare is a reproduction of "SeGShare: Secure Group File
// Sharing in the Cloud using Enclaves" (Fuhry et al., DSN 2020): an
// end-to-end encrypted, group-based file sharing service whose trusted
// core runs inside a (simulated) server-side enclave.
//
// The package is a facade over the implementation packages in internal/:
//
//   - A CertAuthority issues client certificates carrying identity
//     information and provisions server certificates to attested
//     enclaves.
//   - A Platform simulates one SGX-capable machine (sealing, attestation,
//     monotonic counters, protected memory).
//   - A Server is one SeGShare enclave plus its untrusted plumbing: the
//     switchless call bridge, the split TLS stack, the trusted file
//     manager, and the access control component.
//   - A Client is the user application: it stores only its certificate
//     and key, and talks WebDAV-flavoured HTTP over mutually
//     authenticated TLS that terminates inside the enclave.
//
// Minimal setup:
//
//	authority, _ := segshare.NewCA("Example CA")
//	platform, _ := segshare.NewPlatform(segshare.PlatformConfig{})
//	cfg := segshare.ServerConfig{
//		CACertPEM:    authority.CertificatePEM(),
//		ContentStore: segshare.NewMemoryStore(),
//		GroupStore:   segshare.NewMemoryStore(),
//	}
//	server, _ := segshare.NewServer(platform, cfg)
//	_ = segshare.Provision(authority, platform, server, cfg, []string{"localhost"})
//	addr, _ := server.ListenAndServe("127.0.0.1:0")
//
//	cred, _ := authority.IssueClientCertificate(segshare.Identity{UserID: "alice"}, 0)
//	alice, _ := segshare.NewClient(segshare.ClientConfig{
//		Addr:       addr.String(),
//		CACertPEM:  authority.CertificatePEM(),
//		Credential: cred,
//	})
//	_ = alice.Upload("/hello.txt", []byte("hi"))
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package segshare

import (
	"time"

	"segshare/internal/ca"
	"segshare/internal/client"
	"segshare/internal/core"
	"segshare/internal/enclave"
	"segshare/internal/replication"
	"segshare/internal/store"
)

// Core types, re-exported.
type (
	// Server is one SeGShare enclave with its untrusted plumbing.
	Server = core.Server
	// ServerConfig configures a Server.
	ServerConfig = core.Config
	// Features selects the optional extensions (paper §V).
	Features = core.Features
	// GuardKind selects the whole-file-system rollback guard (§V-E).
	GuardKind = core.GuardKind
	// Listing is a directory listing with effective permissions.
	Listing = core.Listing
	// ListingEntry is one child in a Listing.
	ListingEntry = core.ListingEntry
	// WhoAmI reports the server-derived identity and memberships.
	WhoAmI = core.WhoAmI
	// WatchdogConfig tunes the stall watchdog (ServerConfig.Watchdog).
	WatchdogConfig = core.WatchdogConfig
	// RecoveryState publishes journal-recovery progress for readiness
	// gating (ServerConfig.Recovery, Server.Recovery).
	RecoveryState = core.RecoveryState
	// AdmissionConfig tunes the adaptive admission controller
	// (ServerConfig.Admission): AIMD concurrency limits per operation
	// class, a bounded wait queue, and priority shedding under overload.
	AdmissionConfig = core.AdmissionConfig

	// Client is the SeGShare user application.
	Client = client.Client
	// ClientConfig configures a Client.
	ClientConfig = client.Config

	// CertAuthority is the trusted authentication service.
	CertAuthority = ca.Authority
	// Identity is the identity information in a client certificate.
	Identity = ca.Identity
	// Credential is a certificate plus private key.
	Credential = ca.Credential

	// Platform simulates one SGX-capable machine.
	Platform = enclave.Platform
	// PlatformConfig tunes the simulated hardware.
	PlatformConfig = enclave.PlatformConfig
	// Measurement identifies enclave code (MRENCLAVE equivalent).
	Measurement = enclave.Measurement
	// BridgeConfig tunes the switchless call bridge.
	BridgeConfig = enclave.BridgeConfig

	// Backend is untrusted object storage.
	Backend = store.Backend
	// ResilientOptions tunes the store wrapper the server puts around
	// every store — per-op deadlines, retry with backoff, and the
	// per-backend circuit breaker (ServerConfig.Resilience; nil means the
	// defaults).
	ResilientOptions = store.ResilientOptions

	// ReplicationProvider is the root-enclave side of §V-F replication.
	ReplicationProvider = replication.Provider
	// ReplicationRequester is the non-root side of §V-F replication.
	ReplicationRequester = replication.Requester
)

// Whole-file-system guard kinds.
const (
	// GuardNone disables whole-file-system rollback protection.
	GuardNone = core.GuardNone
	// GuardProtectedMemory binds root hashes to protected memory.
	GuardProtectedMemory = core.GuardProtectedMemory
	// GuardCounter binds root hashes to monotonic counters.
	GuardCounter = core.GuardCounter
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrPermissionDenied: the access control component rejected the
	// request.
	ErrPermissionDenied = core.ErrPermissionDenied
	// ErrNotFound: the file, directory, or group does not exist.
	ErrNotFound = core.ErrNotFound
	// ErrExists: the target already exists.
	ErrExists = core.ErrExists
	// ErrIntegrity: stored data was tampered with.
	ErrIntegrity = core.ErrIntegrity
	// ErrRollback: stale (rolled back) data was detected.
	ErrRollback = core.ErrRollback
	// ErrBadRequest: the request was malformed.
	ErrBadRequest = core.ErrBadRequest
	// ErrDegraded: the mutation was rejected because the server is in
	// degraded read-only mode (a store circuit breaker is open).
	ErrDegraded = core.ErrDegraded
	// ErrOverloaded: the admission controller shed the request (queue
	// full or queue-timeout) or the server is draining. Mapped to HTTP
	// 503 with a Retry-After header.
	ErrOverloaded = core.ErrOverloaded
	// ErrCanceled: the request's context ended (client disconnect or
	// deadline) before the work completed. Mapped to HTTP 499.
	ErrCanceled = core.ErrCanceled
	// ErrTooLarge: the request body exceeded the configured cap
	// (ServerConfig.MaxBodyBytes). Mapped to HTTP 413.
	ErrTooLarge = core.ErrTooLarge
)

// NewCA creates a certificate authority with a fresh root certificate.
func NewCA(name string) (*CertAuthority, error) { return ca.New(name) }

// LoadCA restores a certificate authority from PEM files previously
// exported with CertAuthority.MarshalPEM.
func LoadCA(certPEM, keyPEM []byte) (*CertAuthority, error) { return ca.Load(certPEM, keyPEM) }

// NewPlatform creates a simulated SGX platform.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return enclave.NewPlatform(cfg) }

// NewServer launches a SeGShare enclave on the platform.
func NewServer(platform *Platform, cfg ServerConfig) (*Server, error) {
	return core.NewServer(platform, cfg)
}

// NewClient creates a SeGShare user application.
func NewClient(cfg ClientConfig) (*Client, error) { return client.New(cfg) }

// NewMemoryStore returns an in-memory untrusted store.
func NewMemoryStore() Backend { return store.NewMemory() }

// NewDiskStore returns an on-disk untrusted store rooted at dir.
func NewDiskStore(dir string) (Backend, error) { return store.NewDisk(dir) }

// Provision runs the setup-phase protocol of paper §IV-A: the CA attests
// the server's enclave (checking the measurement expected for cfg) and
// installs a server certificate valid for hosts.
func Provision(authority *CertAuthority, platform *Platform, server *Server, cfg ServerConfig, hosts []string) error {
	expected, err := core.ExpectedMeasurement(cfg)
	if err != nil {
		return err
	}
	return authority.ProvisionServer(
		server.Certifier(),
		platform.AttestationPublicKey(),
		expected,
		hosts,
		365*24*time.Hour,
	)
}

// NewReplicationProvider wraps a running root server so replicas can
// obtain SK_r from it (paper §V-F).
func NewReplicationProvider(server *Server) *ReplicationProvider {
	return replication.NewProvider(server.Enclave(), server.RootKey())
}

// RequestRootKey runs the replica side of the §V-F key transfer against a
// provider reachable in-process (the transport-agnostic messages can also
// be shipped over a network). It returns the root key to put in
// ServerConfig.RootKey of the replica.
func RequestRootKey(replicaPlatform *Platform, replicaCfg ServerConfig, provider *ReplicationProvider, rootPlatform *Platform) ([]byte, error) {
	code, err := core.CodeIdentityFor(replicaCfg)
	if err != nil {
		return nil, err
	}
	encl, err := replicaPlatform.Launch(code)
	if err != nil {
		return nil, err
	}
	requester, err := replication.NewRequester(encl)
	if err != nil {
		return nil, err
	}
	resp, err := provider.Respond(requester.Request(), replicaPlatform.AttestationPublicKey())
	if err != nil {
		return nil, err
	}
	return requester.Receive(resp, rootPlatform.AttestationPublicKey())
}

// CopyStore replicates every object from src into dst (backup direction
// of paper §V-G).
func CopyStore(dst, src Backend) error { return store.Copy(dst, src) }

// RestoreStore makes dst an exact replica of src (restore direction of
// paper §V-G).
func RestoreStore(dst, src Backend) error { return store.CopyExact(dst, src) }
