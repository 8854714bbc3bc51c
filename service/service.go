// Package service turns the Section 3 threshold signature into a
// networked signing service. The paper's headline property — partial
// signing is non-interactive and deterministic, so a signing server
// never talks to its peers — means a signer is a stateless
// request/response server, and the whole system scales horizontally:
//
//	client ──POST /v1/sign──▶ Coordinator ──fan-out──▶ t+1 of n × Signer
//	client ◀──signature─────  (combine the first t+1 shares,
//	                           verify the signature once)
//
// Signer serves one private key share over HTTP: POST /v1/sign returns a
// marshalled partial signature, with a bounded worker pool shedding load
// under overload. Coordinator asks a quorum of t+1 signers first, and the
// others only when one errs, is convicted or runs late; it interpolates
// the first t+1 shares and verifies the signature once, which is all an
// honest fleet pays, and runs Share-Verify only to convict — so slow, down
// and Byzantine signers are tolerated exactly as the paper's robust
// Combine tolerates them. A coalescing layer collapses concurrent requests
// for the same message into one fan-out (signing is deterministic, so
// everyone gets the same bytes), and an LRU cache serves repeated messages
// without touching the network at all.
//
// The service is a multi-tenant KMS: every daemon carries a group
// registry (service/registry) mapping group IDs to independent key
// material, and every signing and protocol endpoint exists in a
// group-namespaced form under /v1/g/{groupID}/... — the un-namespaced
// /v1/* routes are an alias for the "default" group, so pre-tenancy
// clients keep working unchanged. New tenants are minted over the wire:
// a DKG run against an unknown group ID registers the tenant, drives
// the keygen across the fleet, and installs per-tenant keystores.
package service

import (
	"net/http"

	"repro/service/registry"
)

// DefaultGroupID is the group the un-namespaced /v1/* routes serve,
// re-exported so wire-level callers need not import the registry.
const DefaultGroupID = registry.DefaultGroup

// groupOf is the group a tenant-scoped request addresses: {gid} on the
// namespaced routes, the default group on their un-namespaced aliases.
func groupOf(r *http.Request) string {
	if gid := r.PathValue("gid"); gid != "" {
		return gid
	}
	return DefaultGroupID
}

// maxRequestBytes caps inbound request bodies (and mirrors the cap on
// response bodies read back from signers), so an oversized payload is
// rejected instead of buffered into memory. Batch requests share the
// same cap; base64 inflates payloads by 4/3, so a full 64-message batch
// fits as long as messages stay under ~11 KiB — the coordinator's window
// batcher also dispatches early on a byte budget so merged batches never
// outgrow what the signers accept.
const maxRequestBytes = 1 << 20

// maxProtoRequestBytes caps protocol-session bodies (and the responses
// the driver reads back). Unlike signing requests, a session step's size
// is set by the protocol itself and grows O(n·t) group elements — round 1
// delivers all n broadcast deals of (t+1) commitments each — so the flat
// signing cap would silently brick large quorums: 64 MiB covers n in the
// hundreds with JSON/base64 overhead.
const maxProtoRequestBytes = 64 << 20

// DefaultMaxBatch is the default per-request message limit for the
// sign-batch endpoints on both signer and coordinator.
const DefaultMaxBatch = 64

// Wire types for the JSON/HTTP API. []byte fields marshal as base64 per
// encoding/json convention.

// SignRequest is the body of POST /v1/sign on both signer and
// coordinator.
type SignRequest struct {
	Message []byte `json:"message"`
}

// PartialResponse is a signer's answer: core.PartialSignature.Marshal
// bytes plus the signer's index for observability.
type PartialResponse struct {
	Index   int    `json:"index"`
	Partial []byte `json:"partial"`
}

// SignatureResponse is the coordinator's answer: core.Signature.Marshal
// bytes plus quorum accounting.
type SignatureResponse struct {
	Signature []byte `json:"signature"`
	Signers   []int  `json:"signers"`              // indices whose shares were combined
	Cached    bool   `json:"cached,omitempty"`     // served from the signature cache
	Coalesced bool   `json:"coalesced,omitempty"`  // rode an in-flight duplicate
	RequestID string `json:"request_id,omitempty"` // trace id, also in the X-Request-ID header
}

// SignBatchRequest is the body of POST /v1/sign-batch on both signer and
// coordinator: up to MaxBatch messages signed in one round-trip.
type SignBatchRequest struct {
	Messages [][]byte `json:"messages"`
}

// PartialBatchResponse is a signer's answer to a batch request:
// Partials[j] is the core.PartialSignature.Marshal bytes for Messages[j].
type PartialBatchResponse struct {
	Index    int      `json:"index"`
	Partials [][]byte `json:"partials"`
}

// BatchItemResponse is one message's outcome inside a SignBatchResponse.
// Exactly one of Signature and Error is set: the batch endpoint reports
// per-message results, so one unsignable message does not fail the rest.
type BatchItemResponse struct {
	Signature []byte `json:"signature,omitempty"`
	Signers   []int  `json:"signers,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Error     string `json:"error,omitempty"`
}

// SignBatchResponse is the coordinator's answer to POST /v1/sign-batch:
// Results[j] corresponds to Messages[j] of the request.
type SignBatchResponse struct {
	Results   []BatchItemResponse `json:"results"`
	RequestID string              `json:"request_id,omitempty"` // trace id, also in the X-Request-ID header
}

// PubkeyResponse describes the group on GET /v1/pubkey: the domain label
// rebuilds Params, PK is core.PublicKey.Marshal bytes.
type PubkeyResponse struct {
	Domain string `json:"domain"`
	N      int    `json:"n"`
	T      int    `json:"t"`
	PK     []byte `json:"pk"`
}

// VKResponse is a signer's verification key on GET /v1/vk
// (core.VerificationKey.Marshal bytes).
type VKResponse struct {
	Index int    `json:"index"`
	VK    []byte `json:"vk"`
}

// HealthResponse is returned by GET /healthz.
type HealthResponse struct {
	Status   string `json:"status"`
	Index    int    `json:"index,omitempty"`    // signer only
	Inflight int    `json:"inflight,omitempty"` // signer: requests holding or waiting for a worker
	// Build identity of the serving binary (see Build).
	Version   string `json:"version,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"revision,omitempty"`
}

// GroupInfo describes one registered tenant on GET /v1/groups and in
// ReadyResponse. Epoch counts successful keygens and refreshes (0 = the
// tenant is registered but holds no key material yet); Ready means the
// tenant is serviceable — registered, not tombstoned, keyed.
type GroupInfo struct {
	ID      string `json:"id"`
	Domain  string `json:"domain,omitempty"`
	N       int    `json:"n,omitempty"`
	T       int    `json:"t,omitempty"`
	Epoch   uint64 `json:"epoch"`
	Deleted bool   `json:"deleted,omitempty"`
	Ready   bool   `json:"ready"`
}

// GroupsResponse lists every registered tenant (tombstones included) on
// GET /v1/groups.
type GroupsResponse struct {
	Groups []GroupInfo `json:"groups"`
}

// GroupDeleteResponse answers DELETE /v1/g/{groupID}. On a coordinator,
// Unreachable lists the 1-based signer indices whose tombstone fan-out
// failed (the delete is recorded locally regardless; re-issue it when
// those signers return).
type GroupDeleteResponse struct {
	ID          string `json:"id"`
	Unreachable []int  `json:"unreachable,omitempty"`
}

// ReadyResponse answers GET /readyz: "ready" with HTTP 200 when the
// daemon can actually serve signatures for at least one group,
// "unready" with 503 otherwise — unlike /healthz, which reports process
// liveness and answers 200 even on a keyless daemon. Groups carries the
// per-group key state so a load balancer (or operator) sees WHICH
// tenants are serviceable.
type ReadyResponse struct {
	Status string      `json:"status"`
	Index  int         `json:"index,omitempty"` // signer only
	Groups []GroupInfo `json:"groups"`
}

// ErrorResponse is the body of every non-2xx answer. Code, when set, is
// one of the Code* constants — a stable machine-readable classification
// that the client package maps back onto typed sentinel errors.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
