package storage

import (
	"fmt"
	"sync"
)

// QuotaController arbitrates per-tenant shares of a shared memory tier.
// A MemoryStore with a quota attached charges every admitted block to
// the owning tenant's account and refuses admissions that would push the
// tenant past its limit; the multi-tenant job server implements owners
// by dataset-id range. All methods must be cheap: they run on the block
// admission/removal hot path under the pool's exclusivity lock.
type QuotaController interface {
	// Owner names the tenant a block belongs to ("" = unowned; unowned
	// blocks are never charged or refused).
	Owner(id BlockID) string
	// Allows reports whether admitting size bytes for the block's owner
	// would stay within the owner's limit, without charging anything.
	Allows(id BlockID, size int64) bool
	// Admit charges size bytes to the block's owner, returning false
	// (and charging nothing) if the owner would exceed its limit.
	Admit(id BlockID, size int64) bool
	// Release returns size bytes to the block's owner.
	Release(id BlockID, size int64)
}

// TenantQuota is the concrete QuotaController the job server uses: a
// locked per-tenant usage ledger against configured byte limits, with
// peak and rejection accounting for Stats. The zero limit means
// unlimited. One TenantQuota is shared by every memory store of a pool,
// so limits are cluster-wide, matching how the ILP's memory budget spans
// the pool.
type TenantQuota struct {
	mu         sync.Mutex
	owner      func(BlockID) string
	limits     map[string]int64
	usage      map[string]int64
	peak       map[string]int64
	rejections map[string]int
}

// NewTenantQuota creates a quota ledger resolving block owners through
// the given function (nil treats every block as unowned).
func NewTenantQuota(owner func(BlockID) string) *TenantQuota {
	if owner == nil {
		owner = func(BlockID) string { return "" }
	}
	return &TenantQuota{
		owner:      owner,
		limits:     make(map[string]int64),
		usage:      make(map[string]int64),
		peak:       make(map[string]int64),
		rejections: make(map[string]int),
	}
}

// SetLimit sets a tenant's cluster-wide memory limit in bytes (0 or
// negative = unlimited).
func (q *TenantQuota) SetLimit(tenant string, bytes int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if bytes <= 0 {
		delete(q.limits, tenant)
		return
	}
	q.limits[tenant] = bytes
}

// Limit returns a tenant's limit (0 = unlimited).
func (q *TenantQuota) Limit(tenant string) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.limits[tenant]
}

// Usage returns a tenant's current charged bytes.
func (q *TenantQuota) Usage(tenant string) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.usage[tenant]
}

// Peak returns the maximum bytes ever charged to the tenant — the
// quantity quota-enforcement assertions check against the limit.
func (q *TenantQuota) Peak(tenant string) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peak[tenant]
}

// Rejections returns how many admissions were refused for the tenant.
func (q *TenantQuota) Rejections(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rejections[tenant]
}

// Owner implements QuotaController.
func (q *TenantQuota) Owner(id BlockID) string { return q.owner(id) }

// Allows implements QuotaController.
func (q *TenantQuota) Allows(id BlockID, size int64) bool {
	t := q.owner(id)
	if t == "" {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	lim, ok := q.limits[t]
	return !ok || q.usage[t]+size <= lim
}

// Admit implements QuotaController.
func (q *TenantQuota) Admit(id BlockID, size int64) bool {
	t := q.owner(id)
	if t == "" {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if lim, ok := q.limits[t]; ok && q.usage[t]+size > lim {
		q.rejections[t]++
		return false
	}
	q.usage[t] += size
	if q.usage[t] > q.peak[t] {
		q.peak[t] = q.usage[t]
	}
	return true
}

// Release implements QuotaController.
func (q *TenantQuota) Release(id BlockID, size int64) {
	t := q.owner(id)
	if t == "" {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.usage[t] -= size
	if q.usage[t] < 0 {
		panic(fmt.Sprintf("storage: tenant %q quota usage went negative releasing %v", t, id))
	}
}
