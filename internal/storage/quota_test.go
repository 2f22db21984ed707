package storage

import "testing"

func quotaOwner(id BlockID) string {
	switch {
	case id.Dataset < 100:
		return "a"
	case id.Dataset < 200:
		return "b"
	default:
		return ""
	}
}

func TestTenantQuotaLedger(t *testing.T) {
	q := NewTenantQuota(quotaOwner)
	q.SetLimit("a", 100)

	idA := BlockID{Dataset: 1, Partition: 0}
	idB := BlockID{Dataset: 150, Partition: 0}
	idNone := BlockID{Dataset: 300, Partition: 0}

	if !q.Allows(idA, 100) {
		t.Fatal("admission at exactly the limit should be allowed")
	}
	if q.Allows(idA, 101) {
		t.Fatal("admission past the limit should be refused")
	}
	if !q.Admit(idA, 60) || !q.Admit(idA, 40) {
		t.Fatal("admissions within the limit should succeed")
	}
	if q.Admit(idA, 1) {
		t.Fatal("admission past the limit should fail")
	}
	if got := q.Rejections("a"); got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}
	if got := q.Usage("a"); got != 100 {
		t.Fatalf("usage = %d, want 100", got)
	}

	// Releasing makes room again; peak stays at the high-water mark.
	q.Release(idA, 40)
	if !q.Admit(idA, 30) {
		t.Fatal("admission after release should succeed")
	}
	if got := q.Peak("a"); got != 100 {
		t.Fatalf("peak = %d, want 100", got)
	}
	if got := q.Usage("a"); got != 90 {
		t.Fatalf("usage = %d, want 90", got)
	}

	// Tenant b has no limit: everything is admitted but still charged.
	if !q.Admit(idB, 1<<40) {
		t.Fatal("unlimited tenant should always admit")
	}
	if got := q.Usage("b"); got != 1<<40 {
		t.Fatalf("unlimited tenant usage = %d, want %d", got, int64(1)<<40)
	}

	// Unowned blocks are never charged.
	if !q.Admit(idNone, 1<<40) {
		t.Fatal("unowned block should always admit")
	}
	if got := q.Usage(""); got != 0 {
		t.Fatalf("unowned usage = %d, want 0", got)
	}
}

func TestTenantQuotaReleasePanicsOnNegative(t *testing.T) {
	q := NewTenantQuota(quotaOwner)
	defer func() {
		if recover() == nil {
			t.Fatal("negative usage should panic")
		}
	}()
	q.Release(BlockID{Dataset: 1}, 10)
}

func TestMemoryStoreChargesQuota(t *testing.T) {
	q := NewTenantQuota(quotaOwner)
	q.SetLimit("a", 100)
	ms := NewMemoryStore(1 << 20)
	ms.SetQuota(q)

	if _, err := ms.Put(BlockID{Dataset: 1, Partition: 0}, nil, 60, 0, 0); err != nil {
		t.Fatalf("first put should fit the quota: %v", err)
	}
	if _, err := ms.Put(BlockID{Dataset: 2, Partition: 0}, nil, 50, 0, 0); err == nil {
		t.Fatal("second put should be refused by the quota backstop")
	}
	if got := q.Usage("a"); got != 60 {
		t.Fatalf("usage = %d, want 60", got)
	}
	ms.Remove(BlockID{Dataset: 1, Partition: 0})
	if got := q.Usage("a"); got != 0 {
		t.Fatalf("usage after remove = %d, want 0", got)
	}
}
