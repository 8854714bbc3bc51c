// Package registry is the multi-tenant group registry of the KMS: a
// concurrent map from group ID to per-tenant metadata (domain, size,
// epoch, tombstone state), an LRU of hot in-memory per-tenant state, and
// a persistent on-disk layout — a binary manifest of every record plus
// one keystore directory per tenant, written through the keyfile codecs.
//
// The registry itself stores no key material: it records WHICH groups
// exist (and at which epoch), while the service layer hangs its live
// per-tenant signer/coordinator state off the hot cache and loads cold
// tenants back from their keystores on demand.
//
// Durability model: the manifest is rewritten atomically (temp file +
// rename) on every record change, so a crash leaves either the old or
// the new manifest, never a torn one. A registry opened without a
// directory is memory-only: records live for the process lifetime and
// the hot cache never evicts (evicting would drop key material that
// exists nowhere else).
package registry

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/keyfile"
)

// DefaultGroup is the group ID the un-namespaced /v1/* routes alias:
// every pre-multi-tenant deployment is implicitly this tenant.
const DefaultGroup = "default"

// ErrInvalidID rejects group IDs that are empty, too long, or contain
// characters outside [a-zA-Z0-9._-] (IDs name directories on disk and
// appear in URL paths, so the alphabet is deliberately tight).
var ErrInvalidID = errors.New("registry: invalid group id")

// MaxIDLen bounds a group ID; fits the u8 length prefix of the manifest
// codec with room to spare.
const MaxIDLen = 64

// maxDomainLen bounds a record's domain label in the manifest (u16
// length prefix; domains are short human labels in practice).
const maxDomainLen = 1024

// ValidateID checks a group ID: 1..MaxIDLen characters from
// [a-zA-Z0-9._-], first character alphanumeric (no dotfiles, no
// flag-looking names, no path traversal — ".." cannot start with a
// letter).
func ValidateID(id string) error {
	if len(id) == 0 || len(id) > MaxIDLen {
		return fmt.Errorf("%w: %q (need 1..%d characters)", ErrInvalidID, id, MaxIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case i > 0 && (c == '.' || c == '_' || c == '-'):
		default:
			return fmt.Errorf("%w: %q (allowed: [a-zA-Z0-9._-], leading alphanumeric)", ErrInvalidID, id)
		}
	}
	return nil
}

// Record is one tenant's registry entry. Epoch counts successful key
// generations and refreshes: 0 means the tenant is registered but holds
// no key material yet (a mint in progress). Deleted tombstones the
// tenant permanently — tombstoned IDs are never reusable, so a client
// holding a stale ID can never be served a DIFFERENT tenant's key.
type Record struct {
	ID      string
	Domain  string
	N, T    int
	Epoch   uint64
	Deleted bool
}

// Config configures Open.
type Config struct {
	// Dir is the registry root directory. Empty means memory-only: no
	// manifest, no keystores, unbounded hot cache.
	Dir string
	// HotCap bounds the hot-state LRU for file-backed registries (cold
	// tenants reload from their keystores). 0 means DefaultHotCap;
	// ignored (unbounded) when Dir is empty, because evicting a
	// memory-only tenant would lose its key material.
	HotCap int
}

// DefaultHotCap is the hot-state LRU capacity for file-backed
// registries when Config.HotCap is 0.
const DefaultHotCap = 256

// manifestFile is the registry manifest, relative to the root.
const manifestFile = "manifest.bin"

// Registry is the concurrent group registry. All methods are safe for
// concurrent use.
type Registry struct {
	dir    string
	hotCap int // 0 = unbounded

	mu      sync.Mutex
	records map[string]Record
	hot     map[string]*list.Element
	hotLRU  *list.List // front = most recently used

	// Observability counters, exported through Stats.
	hotHits          atomic.Uint64
	hotMisses        atomic.Uint64
	manifestRewrites atomic.Uint64
}

type hotEntry struct {
	id string
	v  any
}

// Open opens (or initializes) a registry. With a directory, the
// manifest is loaded when present and the directory is created when
// missing; without one the registry is memory-only.
func Open(cfg Config) (*Registry, error) {
	r := &Registry{
		dir:     cfg.Dir,
		records: make(map[string]Record),
		hot:     make(map[string]*list.Element),
		hotLRU:  list.New(),
	}
	if cfg.Dir != "" {
		r.hotCap = cfg.HotCap
		if r.hotCap <= 0 {
			r.hotCap = DefaultHotCap
		}
		if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		raw, err := os.ReadFile(filepath.Join(cfg.Dir, manifestFile))
		switch {
		case err == nil:
			recs, err := DecodeManifest(raw)
			if err != nil {
				return nil, fmt.Errorf("registry: %s: %w", filepath.Join(cfg.Dir, manifestFile), err)
			}
			for _, rec := range recs {
				r.records[rec.ID] = rec
			}
		case errors.Is(err, os.ErrNotExist):
			// Fresh registry.
		default:
			return nil, fmt.Errorf("registry: %w", err)
		}
	}
	return r, nil
}

// Dir returns the registry root ("" for memory-only registries).
func (r *Registry) Dir() string { return r.dir }

// Get returns the record for id.
func (r *Registry) Get(id string) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.records[id]
	return rec, ok
}

// List returns every record (tombstones included), sorted by ID.
func (r *Registry) List() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, len(r.records))
	for _, rec := range r.records {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Put upserts a record and persists the manifest. A persistence failure
// leaves the in-memory map unchanged, so memory and disk cannot drift.
func (r *Registry) Put(rec Record) error {
	if err := ValidateID(rec.ID); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, hadOld := r.records[rec.ID]
	r.records[rec.ID] = rec
	if err := r.persistLocked(); err != nil {
		if hadOld {
			r.records[rec.ID] = old
		} else {
			delete(r.records, rec.ID)
		}
		return err
	}
	return nil
}

// Tombstone marks id deleted (idempotently), persists the manifest, and
// drops any hot state. The keystore files are left in place: a
// tombstone revokes service, it does not shred key material.
func (r *Registry) Tombstone(id string) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.records[id]
	if ok && old.Deleted {
		r.dropHotLocked(id)
		return nil
	}
	rec := old
	rec.ID = id
	rec.Deleted = true
	r.records[id] = rec
	if err := r.persistLocked(); err != nil {
		if ok {
			r.records[id] = old
		} else {
			delete(r.records, id)
		}
		return err
	}
	r.dropHotLocked(id)
	return nil
}

// persistLocked atomically rewrites the manifest. Callers hold r.mu.
func (r *Registry) persistLocked() error {
	if r.dir == "" {
		return nil
	}
	recs := make([]Record, 0, len(r.records))
	for _, rec := range r.records {
		recs = append(recs, rec)
	}
	raw, err := EncodeManifest(recs)
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, manifestFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o600); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //tsiglint:ignore errlost best-effort temp cleanup; the rename failure is the error that matters and is returned
		return fmt.Errorf("registry: %w", err)
	}
	r.manifestRewrites.Add(1)
	return nil
}

// Stats reports the registry's observability counters: hot-cache hits
// and misses, and completed manifest rewrites.
func (r *Registry) Stats() (hotHits, hotMisses, manifestRewrites uint64) {
	return r.hotHits.Load(), r.hotMisses.Load(), r.manifestRewrites.Load()
}

// Len reports the number of registered records, tombstones included.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.records)
}

// HotGet returns the hot per-tenant state for id, refreshing its LRU
// position.
func (r *Registry) HotGet(id string) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.hot[id]
	if !ok {
		r.hotMisses.Add(1)
		return nil, false
	}
	r.hotHits.Add(1)
	r.hotLRU.MoveToFront(el)
	return el.Value.(*hotEntry).v, true
}

// HotPut installs hot per-tenant state for id, evicting the least
// recently used entry beyond the capacity (file-backed registries only;
// a memory-only registry must never evict, because the evicted tenant's
// key material exists nowhere else).
func (r *Registry) HotPut(id string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.hot[id]; ok {
		r.hotLRU.MoveToFront(el)
		el.Value.(*hotEntry).v = v
		return
	}
	r.hot[id] = r.hotLRU.PushFront(&hotEntry{id: id, v: v})
	if r.hotCap > 0 && r.hotLRU.Len() > r.hotCap {
		oldest := r.hotLRU.Back()
		r.hotLRU.Remove(oldest)
		delete(r.hot, oldest.Value.(*hotEntry).id)
	}
}

func (r *Registry) dropHotLocked(id string) {
	if el, ok := r.hot[id]; ok {
		r.hotLRU.Remove(el)
		delete(r.hot, id)
	}
}

// HotLen reports the hot-cache size (tests, observability).
func (r *Registry) HotLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hotLRU.Len()
}

// GroupDir is the tenant's keystore directory ("" for memory-only
// registries).
func (r *Registry) GroupDir(id string) string {
	if r.dir == "" {
		return ""
	}
	return filepath.Join(r.dir, "g", id)
}

// SaveGroup persists a tenant's public group file (coordinators). A
// no-op for memory-only registries.
func (r *Registry) SaveGroup(id string, g *core.Group) error {
	if r.dir == "" {
		return nil
	}
	dir := r.GroupDir(id)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return keyfile.WriteGroup(filepath.Join(dir, "group.json"), g)
}

// SaveMember persists a tenant's group file plus one private share
// (signers), with the keyfile package's share-before-group ordering and
// binding checks. A no-op for memory-only registries.
func (r *Registry) SaveMember(id string, g *core.Group, sk *core.PrivateKeyShare) error {
	if r.dir == "" {
		return nil
	}
	dir := r.GroupDir(id)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return keyfile.WriteMember(
		filepath.Join(dir, "group.json"),
		filepath.Join(dir, fmt.Sprintf("share-%d.json", sk.Index)),
		g, sk)
}

// LoadGroup loads a tenant's public group file. os.ErrNotExist when the
// tenant has no persisted group (or the registry is memory-only).
func (r *Registry) LoadGroup(id string) (*core.Group, error) {
	if r.dir == "" {
		return nil, os.ErrNotExist
	}
	return keyfile.LoadGroup(filepath.Join(r.GroupDir(id), "group.json"))
}

// LoadMember loads and binds a tenant's group file and share file for
// player index. os.ErrNotExist when either file is missing (or the
// registry is memory-only).
func (r *Registry) LoadMember(id string, index int) (*core.Member, error) {
	if r.dir == "" {
		return nil, os.ErrNotExist
	}
	dir := r.GroupDir(id)
	return keyfile.LoadMember(
		filepath.Join(dir, "group.json"),
		filepath.Join(dir, fmt.Sprintf("share-%d.json", index)))
}

// Manifest codec: a length-checked binary format, deliberately strict —
// every field is bounds-checked, records must be sorted by ID with no
// duplicates, and trailing bytes are an error, so a truncated or
// bit-flipped manifest fails loudly at open time instead of silently
// dropping tenants.
//
//	magic "TSRG" | u8 version | u32 count
//	per record:
//	  u8  len(id)   | id bytes   (ValidateID-clean)
//	  u8  flags     (bit 0: deleted)
//	  u64 epoch
//	  u32 n | u32 t
//	  u16 len(domain) | domain bytes
//
// All integers big-endian.

var manifestMagic = [4]byte{'T', 'S', 'R', 'G'}

const manifestVersion = 1

// maxManifestRecords caps how many records a decoder will allocate for,
// far above any realistic tenant count but small enough that a hostile
// count field cannot balloon memory.
const maxManifestRecords = 1 << 20

// EncodeManifest serializes records (sorted by ID; input order does not
// matter). IDs are validated and duplicates rejected.
func EncodeManifest(recs []Record) ([]byte, error) {
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	out := make([]byte, 0, 16+len(sorted)*32)
	out = append(out, manifestMagic[:]...)
	out = append(out, manifestVersion)
	out = binary.BigEndian.AppendUint32(out, uint32(len(sorted)))
	for i, rec := range sorted {
		if err := ValidateID(rec.ID); err != nil {
			return nil, err
		}
		if i > 0 && sorted[i-1].ID == rec.ID {
			return nil, fmt.Errorf("registry: duplicate manifest record %q", rec.ID)
		}
		if len(rec.Domain) > maxDomainLen {
			return nil, fmt.Errorf("registry: record %q: domain longer than %d bytes", rec.ID, maxDomainLen)
		}
		if rec.N < 0 || rec.T < 0 {
			return nil, fmt.Errorf("registry: record %q: negative group size", rec.ID)
		}
		out = append(out, byte(len(rec.ID)))
		out = append(out, rec.ID...)
		var flags byte
		if rec.Deleted {
			flags |= 1
		}
		out = append(out, flags)
		out = binary.BigEndian.AppendUint64(out, rec.Epoch)
		out = binary.BigEndian.AppendUint32(out, uint32(rec.N))
		out = binary.BigEndian.AppendUint32(out, uint32(rec.T))
		out = binary.BigEndian.AppendUint16(out, uint16(len(rec.Domain)))
		out = append(out, rec.Domain...)
	}
	return out, nil
}

// DecodeManifest parses a manifest, enforcing every invariant
// EncodeManifest guarantees: magic, version, exact length, valid and
// strictly increasing IDs, bounded fields, no trailing bytes.
func DecodeManifest(raw []byte) ([]Record, error) {
	if len(raw) < 9 {
		return nil, errors.New("registry: manifest too short")
	}
	if [4]byte(raw[:4]) != manifestMagic {
		return nil, errors.New("registry: bad manifest magic")
	}
	if raw[4] != manifestVersion {
		return nil, fmt.Errorf("registry: unsupported manifest version %d", raw[4])
	}
	count := binary.BigEndian.Uint32(raw[5:9])
	if count > maxManifestRecords {
		return nil, fmt.Errorf("registry: manifest claims %d records (max %d)", count, maxManifestRecords)
	}
	pos := 9
	need := func(n int) error {
		if len(raw)-pos < n {
			return errors.New("registry: truncated manifest")
		}
		return nil
	}
	recs := make([]Record, 0, count)
	prev := ""
	for i := uint32(0); i < count; i++ {
		if err := need(1); err != nil {
			return nil, err
		}
		idLen := int(raw[pos])
		pos++
		if err := need(idLen + 1 + 8 + 4 + 4 + 2); err != nil {
			return nil, err
		}
		rec := Record{ID: string(raw[pos : pos+idLen])}
		pos += idLen
		if err := ValidateID(rec.ID); err != nil {
			return nil, err
		}
		if rec.ID <= prev {
			return nil, fmt.Errorf("registry: manifest records out of order at %q", rec.ID)
		}
		prev = rec.ID
		flags := raw[pos]
		pos++
		if flags&^1 != 0 {
			return nil, fmt.Errorf("registry: record %q: unknown flags %#x", rec.ID, flags)
		}
		rec.Deleted = flags&1 != 0
		rec.Epoch = binary.BigEndian.Uint64(raw[pos:])
		pos += 8
		n := binary.BigEndian.Uint32(raw[pos:])
		t := binary.BigEndian.Uint32(raw[pos+4:])
		pos += 8
		const maxGroupSize = 1 << 16
		if n > maxGroupSize || t > maxGroupSize {
			return nil, fmt.Errorf("registry: record %q: group size n=%d t=%d out of range", rec.ID, n, t)
		}
		rec.N, rec.T = int(n), int(t)
		domLen := int(binary.BigEndian.Uint16(raw[pos:]))
		pos += 2
		if domLen > maxDomainLen {
			return nil, fmt.Errorf("registry: record %q: domain length %d exceeds %d", rec.ID, domLen, maxDomainLen)
		}
		if err := need(domLen); err != nil {
			return nil, err
		}
		rec.Domain = string(raw[pos : pos+domLen])
		pos += domLen
		recs = append(recs, rec)
	}
	if pos != len(raw) {
		return nil, fmt.Errorf("registry: %d trailing manifest bytes", len(raw)-pos)
	}
	return recs, nil
}
