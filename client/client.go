// Package client is the HTTP client for the threshold-signing service
// (repro/service): it talks to a coordinator gateway — or directly to
// signer daemons for the endpoints they share — and returns the public
// tsig types.
//
// The transport is pluggable: anything with *http.Client's Do method
// satisfies Transport, so connection pooling, retries, authentication,
// tracing, or a completely different wire (a test double, a unix-socket
// dialer) can be slotted in without touching the client:
//
//	c := &client.Client{BaseURL: "http://coordinator:9090"}
//	sig, receipt, err := c.Sign(ctx, msg)
//	if errors.Is(err, tsig.ErrQuorumUnreachable) { ... }
//
// Errors are typed end to end: non-2xx answers carry a machine-readable
// code (see the service package's Code* constants) that is mapped back
// onto the tsig sentinel errors, so errors.Is works across the process
// boundary exactly as it does in-process.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	tsig "repro"
	"repro/service"
)

// Transport issues HTTP requests. *http.Client satisfies it; so does any
// middleware that wraps one.
type Transport interface {
	Do(req *http.Request) (*http.Response, error)
}

// maxResponseBytes caps how much of a response body is read back,
// mirroring the service's own request cap.
const maxResponseBytes = 1 << 20

// Client talks to a coordinator (or, for FetchPubkey/FetchVK/Health, any
// signer — they serve the same schema). The zero value with a BaseURL is
// ready to use.
//
// A multi-tenant deployment scopes requests to one tenant group with
// ForGroup; the zero GroupID speaks the legacy un-namespaced routes,
// which the service aliases to its "default" group.
type Client struct {
	// BaseURL is the server's base URL, without a trailing slash.
	BaseURL string
	// GroupID scopes signing and protocol requests to one tenant group
	// via the /v1/g/{GroupID}/... routes. Empty means the legacy /v1/...
	// routes (the service's default group). Set it with ForGroup.
	GroupID string
	// Transport issues the requests; nil means http.DefaultClient.
	Transport Transport
}

// ForGroup returns a copy of the client scoped to one tenant group: all
// per-group calls (Sign, SignBatch, FetchPubkey, FetchVK, RunDKG,
// Rotate, RunRefresh) go to that group's namespaced routes. Fleet-wide
// calls (Health, Ready, ListGroups, DeleteGroup) are unaffected.
func (c *Client) ForGroup(id string) *Client {
	cp := *c
	cp.GroupID = id
	return &cp
}

// path builds a group-scoped request path: "/v1" + p for the legacy
// default, "/v1/g/{gid}" + p when the client is scoped to a group.
func (c *Client) path(p string) string {
	if c.GroupID == "" {
		return "/v1" + p
	}
	return "/v1/g/" + c.GroupID + p
}

func (c *Client) transport() Transport {
	if c.Transport == nil {
		return http.DefaultClient
	}
	return c.Transport
}

// APIError is a non-2xx answer from the service: the HTTP status, the
// machine-readable wire code, and the server's message. It unwraps to
// the matching tsig sentinel error when the code names one.
type APIError struct {
	Path      string // request path, e.g. "/v1/sign"
	Status    int    // HTTP status code
	Code      string // wire code (service.Code* constant), possibly empty
	Message   string // server's human-readable message
	RequestID string // the server's X-Request-ID echo, for log correlation
	// RetryAfter is the server's Retry-After hint in its delta-seconds
	// form (a shedding signer sends one with its 503 overloaded answer);
	// zero when the header is absent or not a non-negative integer.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("client: %s: %s (status %d)", e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("client: %s: status %d", e.Path, e.Status)
}

// Unwrap maps the wire code back onto the typed sentinels the
// server-side error wrapped, so errors.Is crosses the process boundary —
// including the distinction between "quorum missed because signers were
// down" and "quorum missed with Byzantine shares among the answers".
func (e *APIError) Unwrap() []error {
	switch e.Code {
	case service.CodeEmptyMessage:
		return []error{tsig.ErrEmptyMessage}
	case service.CodeBatchTooLarge:
		return []error{tsig.ErrBatchTooLarge}
	case service.CodeOverloaded:
		return []error{tsig.ErrOverloaded}
	case service.CodeQuorum:
		return []error{tsig.ErrQuorumUnreachable, tsig.ErrInsufficientShares}
	case service.CodeQuorumInvalidShares:
		return []error{tsig.ErrQuorumUnreachable, tsig.ErrInsufficientShares, tsig.ErrInvalidShare}
	case service.CodeNoKey:
		return []error{tsig.ErrNoKeyMaterial}
	case service.CodeProtoFailed:
		return []error{tsig.ErrProtocolFailed}
	case service.CodeSessionNotFound:
		return []error{service.ErrSessionNotFound}
	case service.CodeConflict:
		return []error{service.ErrConflict}
	case service.CodeUnknownGroup:
		return []error{service.ErrUnknownGroup}
	case service.CodeGroupDeleted:
		return []error{service.ErrGroupDeleted}
	default:
		return nil
	}
}

// Sign requests a full threshold signature on msg from the coordinator.
// The receipt carries the quorum accounting (which signers contributed,
// cache/coalescing flags).
func (c *Client) Sign(ctx context.Context, msg []byte) (*tsig.Signature, *service.SignatureResponse, error) {
	body, err := json.Marshal(service.SignRequest{Message: msg})
	if err != nil {
		return nil, nil, err
	}
	var sr service.SignatureResponse
	if err := c.postJSON(ctx, c.path("/sign"), body, &sr); err != nil {
		return nil, nil, err
	}
	sig, err := tsig.UnmarshalSignature(sr.Signature)
	if err != nil {
		return nil, nil, fmt.Errorf("client: coordinator returned malformed signature: %w", err)
	}
	return sig, &sr, nil
}

// SignBatch requests threshold signatures for every message in one
// round-trip to the coordinator. sigs[j] is the signature for msgs[j],
// or nil when that message failed — the per-message error strings are in
// the response. The error is non-nil only for transport- or
// request-level failures.
func (c *Client) SignBatch(ctx context.Context, msgs [][]byte) ([]*tsig.Signature, *service.SignBatchResponse, error) {
	body, err := json.Marshal(service.SignBatchRequest{Messages: msgs})
	if err != nil {
		return nil, nil, err
	}
	var br service.SignBatchResponse
	if err := c.postJSON(ctx, c.path("/sign-batch"), body, &br); err != nil {
		return nil, nil, err
	}
	if len(br.Results) != len(msgs) {
		return nil, nil, fmt.Errorf("client: coordinator answered %d results for %d messages", len(br.Results), len(msgs))
	}
	sigs := make([]*tsig.Signature, len(msgs))
	for j, res := range br.Results {
		if res.Error != "" {
			continue
		}
		if sigs[j], err = tsig.UnmarshalSignature(res.Signature); err != nil {
			return nil, nil, fmt.Errorf("client: coordinator returned malformed signature for message %d: %w", j, err)
		}
	}
	return sigs, &br, nil
}

// RunDKG asks the coordinator to drive a distributed key generation
// across its signer daemons: every daemon generates its share locally
// with Pedersen's DKG — no trusted dealer, no pre-distributed key
// material, and no share ever crosses the wire to this client. The
// returned Group is the public outcome (threshold public key plus
// verification keys), decoded from the response and validated; t is the
// threshold (any t+1 of the coordinator's n signers will sign, n >=
// 2t+1) and domain the parameter domain-separation label.
//
// The call is long-running (it spans every protocol round plus the
// finish phase), so pass a context with a generous deadline. Typed
// failures cross the wire: errors.Is(err, tsig.ErrProtocolFailed) when
// too many signers crashed or the survivors disagreed, and
// service.ErrConflict when the quorum already holds key material.
// When the client is scoped to an unknown group ID (ForGroup), the run
// MINTS the tenant: the fleet registers the ID and generates its key
// material on the spot — keygen as a service.
func (c *Client) RunDKG(ctx context.Context, t int, domain string) (*tsig.Group, *service.ProtoRunResponse, error) {
	return c.runProto(ctx, c.path("/proto/dkg/run"), service.ProtoRunRequest{T: t, Domain: domain})
}

// Rotate asks the coordinator to REPLACE the group's key material with a
// freshly generated one (a full DKG under a bumped epoch). Unlike
// RunRefresh, rotation changes the threshold public key: signatures
// issued before the rotation stay valid under the old key, but the
// service only produces signatures under the new one from here on.
func (c *Client) Rotate(ctx context.Context, t int, domain string) (*tsig.Group, *service.ProtoRunResponse, error) {
	return c.runProto(ctx, c.path("/proto/dkg/run"), service.ProtoRunRequest{T: t, Domain: domain, Rotate: true})
}

// RunRefresh asks the coordinator to drive one proactive refresh epoch
// (Section 3.3) across its signer daemons: every daemon's share is
// re-randomized in place while the threshold public key stays the same,
// so shares stolen in different epochs cannot be combined. The returned
// Group carries the new verification keys; any signers listed in the
// response's Crashed field kept their old (now stale) shares and need
// share recovery before they can sign again.
func (c *Client) RunRefresh(ctx context.Context) (*tsig.Group, *service.ProtoRunResponse, error) {
	return c.runProto(ctx, c.path("/proto/refresh/run"), service.ProtoRunRequest{})
}

func (c *Client) runProto(ctx context.Context, path string, req service.ProtoRunRequest) (*tsig.Group, *service.ProtoRunResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	var pr service.ProtoRunResponse
	if err := c.postJSON(ctx, path, body, &pr); err != nil {
		return nil, nil, err
	}
	group, err := tsig.UnmarshalGroup(pr.Group)
	if err != nil {
		return nil, nil, fmt.Errorf("client: coordinator returned malformed group: %w", err)
	}
	return group, &pr, nil
}

// FetchPubkey retrieves the group description and reconstructs the
// public key (parameters are rebuilt from the domain label, exactly as
// every server derives them). Verifying against a key the service itself
// reports catches transport corruption but not a lying server; prefer a
// locally trusted Group when one is available.
func (c *Client) FetchPubkey(ctx context.Context) (*tsig.PublicKey, *service.PubkeyResponse, error) {
	var pr service.PubkeyResponse
	if err := c.getJSON(ctx, c.path("/pubkey"), &pr); err != nil {
		return nil, nil, err
	}
	params := tsig.NewScheme(tsig.WithDomain(pr.Domain)).Params()
	pk, err := tsig.UnmarshalPublicKey(params, pr.PK)
	if err != nil {
		return nil, nil, fmt.Errorf("client: malformed public key from %s: %w", c.BaseURL, err)
	}
	return pk, &pr, nil
}

// FetchVK retrieves a signer daemon's own verification key (signers
// only; the coordinator does not serve /v1/vk).
func (c *Client) FetchVK(ctx context.Context) (*tsig.VerificationKey, *service.VKResponse, error) {
	var vr service.VKResponse
	if err := c.getJSON(ctx, c.path("/vk"), &vr); err != nil {
		return nil, nil, err
	}
	vk, err := tsig.UnmarshalVerificationKey(vr.VK)
	if err != nil {
		return nil, nil, fmt.Errorf("client: malformed verification key from %s: %w", c.BaseURL, err)
	}
	return vk, &vr, nil
}

// Health probes /healthz. Health is liveness only: a keyless daemon is
// healthy (it can still run a keygen); readiness to SIGN is Ready.
func (c *Client) Health(ctx context.Context) (*service.HealthResponse, error) {
	var hr service.HealthResponse
	if err := c.getJSON(ctx, "/healthz", &hr); err != nil {
		return nil, err
	}
	return &hr, nil
}

// Ready probes /readyz: whether the server can sign for at least one
// group, with the per-group key state. Unlike the other calls, a 503
// (unready) answer is NOT an error — it still carries the per-group
// breakdown; inspect Status. The error is non-nil only for transport
// failures or non-readiness statuses.
func (c *Client) Ready(ctx context.Context) (*service.ReadyResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.transport().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	var rr service.ReadyResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable {
		if err := json.Unmarshal(raw, &rr); err == nil && rr.Status != "" {
			return &rr, nil
		}
	}
	return nil, &APIError{Path: "/readyz", Status: resp.StatusCode, Message: string(bytes.TrimSpace(raw))}
}

// ListGroups enumerates the tenant groups the server knows, including
// tombstoned (deleted) IDs.
func (c *Client) ListGroups(ctx context.Context) ([]service.GroupInfo, error) {
	var gr service.GroupsResponse
	if err := c.getJSON(ctx, "/v1/groups", &gr); err != nil {
		return nil, err
	}
	return gr.Groups, nil
}

// DeleteGroup tombstones a tenant group on the coordinator and fans the
// deletion out to the signers. The ID is retired permanently — it can
// never be re-registered, so a stray cached signature can never be
// confused with a fresh one. The returned slice lists signer indexes
// the deletion did not reach (down or erroring); re-issue the call once
// they are back — deletion is idempotent.
func (c *Client) DeleteGroup(ctx context.Context, id string) ([]int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/v1/g/"+id, nil)
	if err != nil {
		return nil, err
	}
	var dr service.GroupDeleteResponse
	if err := c.doJSON(req, &dr); err != nil {
		return nil, err
	}
	return dr.Unreachable, nil
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	return c.doJSON(req, out)
}

func (c *Client) postJSON(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.doJSON(req, out)
}

func (c *Client) doJSON(req *http.Request, out any) error {
	// Propagate a caller-chosen request id (service.WithRequestID) so one
	// trace id follows the request through the coordinator's logs and its
	// fan-out to the signers; without one the coordinator generates its
	// own and echoes it back in the response header and body.
	if rid := service.RequestIDFromContext(req.Context()); rid != "" {
		req.Header.Set(service.HeaderRequestID, rid)
	}
	resp, err := c.transport().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{
			Path: req.URL.Path, Status: resp.StatusCode,
			RequestID:  resp.Header.Get(service.HeaderRequestID),
			RetryAfter: retryAfter(resp.Header.Get("Retry-After")),
		}
		var er service.ErrorResponse
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			apiErr.Code = er.Code
			apiErr.Message = er.Error
		} else {
			apiErr.Message = string(bytes.TrimSpace(raw))
		}
		return apiErr
	}
	return json.Unmarshal(raw, out)
}

// retryAfter parses a Retry-After value in its delta-seconds form. The
// HTTP-date form and anything malformed read as zero: no hint.
func retryAfter(v string) time.Duration {
	secs, err := strconv.ParseUint(v, 10, 32)
	if err != nil {
		return 0
	}
	return time.Duration(secs) * time.Second
}
