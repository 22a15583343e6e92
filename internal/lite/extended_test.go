package lite

import (
	"bytes"
	"testing"
	"time"

	"lite/internal/simtime"
)

func TestMulticastRPC(t *testing.T) {
	cls, dep := testDep(t, 4)
	for n := 1; n < 4; n++ {
		startEchoServerN(cls, dep, n)
	}
	cls.GoOn(0, "caller", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		replies, err := c.MulticastRPC(p, []int{1, 2, 3}, echoFn, []byte("mc"), 32)
		if err != nil {
			t.Fatal(err)
		}
		if len(replies) != 3 {
			t.Fatalf("replies = %d", len(replies))
		}
		for i, r := range replies {
			if string(r) != "mc" {
				t.Fatalf("reply %d = %q", i, r)
			}
		}
		// Concurrency: three RPCs must take far less than three
		// sequential round trips.
		start := p.Now()
		if _, err := c.MulticastRPC(p, []int{1, 2, 3}, echoFn, []byte("mc"), 32); err != nil {
			t.Fatal(err)
		}
		el := p.Now() - start
		if el > 6*time.Microsecond {
			t.Fatalf("multicast to 3 nodes took %v, want overlap (single RPC ~2.5us)", el)
		}
	})
	run(t, cls)
}

func TestMulticastRPCEmptyAndError(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "caller", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if replies, err := c.MulticastRPC(p, nil, echoFn, nil, 8); err != nil || replies != nil {
			t.Fatalf("empty multicast: %v %v", replies, err)
		}
		// No server registered at node 1: the call must time out.
		if _, err := c.MulticastRPC(p, []int{1}, echoFn, []byte("x"), 8); err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})
	run(t, cls)
}

// TestMulticastRPCCarriesTenant: a tenant client's multicast reaches
// every server, remote or node-local, as that tenant's traffic, so
// tenant-weighted admission and tenant-keyed handlers see the caller.
func TestMulticastRPCCarriesTenant(t *testing.T) {
	const tenant = 7
	cls, dep := testDep(t, 3)
	for n := 0; n < 3; n++ {
		if err := dep.Instance(n).ServeRPC(echoFn, 1, func(p *simtime.Proc, c *Call) []byte {
			return []byte{byte(c.Tenant)}
		}); err != nil {
			t.Fatal(err)
		}
	}
	var replies [][]byte
	var err error
	cls.GoOn(0, "caller", func(p *simtime.Proc) {
		replies, err = dep.Instance(0).TenantClient(tenant).MulticastRPC(p, []int{0, 1, 2}, echoFn, []byte("mc"), 8)
	})
	run(t, cls)
	if err != nil {
		t.Fatal(err)
	}
	for dst, r := range replies {
		if len(r) != 1 || r[0] != tenant {
			t.Errorf("server %d saw tenant %v, want %d", dst, r, tenant)
		}
	}
}

// startEchoServerN registers echoFn on one node with one server thread.
func startEchoServerN(cls interface {
	GoDaemonOn(int, string, func(*simtime.Proc)) *simtime.Proc
}, dep *Deployment, node int) {
	inst := dep.Instance(node)
	_ = inst.RegisterRPC(echoFn)
	cls.GoDaemonOn(node, "echo", func(p *simtime.Proc) {
		c := inst.KernelClient()
		call, err := c.RecvRPC(p, echoFn)
		for err == nil {
			call, err = c.ReplyRecvRPC(p, call, call.Input, echoFn)
		}
	})
}

func TestMoveLMR(t *testing.T) {
	cls, dep := testDep(t, 3)
	cls.GoOn(0, "mover", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := c.MallocAt(p, []int{1}, 64<<10, "movable", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 64<<10)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if err := c.Write(p, h, 0, data); err != nil {
			t.Fatal(err)
		}
		node1Before := cls.Nodes[1].Mem.AllocatedBytes()
		if err := c.Move(p, h, 2); err != nil {
			t.Fatal(err)
		}
		// Data survives the move and the old node's memory is freed.
		got := make([]byte, len(data))
		if err := c.Read(p, h, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data lost in move")
		}
		if cls.Nodes[1].Mem.AllocatedBytes() >= node1Before {
			t.Fatal("old home still holds the chunks")
		}
	})
	run(t, cls)
}

func TestMoveRequiresMaster(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "owner", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := c.Malloc(p, 4096, "fixed", PermRead|PermWrite); err != nil {
			t.Fatal(err)
		}
	})
	cls.GoOn(1, "interloper", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond)
		c := dep.Instance(1).KernelClient()
		h, err := c.Map(p, "fixed")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Move(p, h, 1); err != ErrNotMaster {
			t.Fatalf("err = %v, want ErrNotMaster", err)
		}
		if err := c.Free(p, h); err != ErrNotMaster {
			t.Fatalf("free err = %v, want ErrNotMaster", err)
		}
	})
	run(t, cls)
}

func TestGrantMasterRole(t *testing.T) {
	// A master can grant the master role to another node (§4.1), which
	// can then free the LMR.
	cls, dep := testDep(t, 2)
	granted := false
	var cond simtime.Cond
	cls.GoOn(0, "owner", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := c.Malloc(p, 4096, "comaster", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Grant(p, h, 1, PermRead|PermWrite|PermMaster); err != nil {
			t.Fatal(err)
		}
		granted = true
		cond.Broadcast(p.Env())
	})
	cls.GoOn(1, "comaster", func(p *simtime.Proc) {
		for !granted {
			cond.Wait(p)
		}
		c := dep.Instance(1).KernelClient()
		h, err := c.Map(p, "comaster")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Free(p, h); err != nil {
			t.Fatalf("co-master free failed: %v", err)
		}
	})
	run(t, cls)
}

func TestRegisterLMRFromExistingMemory(t *testing.T) {
	// Masters may register already-allocated memory as an LMR (§4.1).
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "owner", func(p *simtime.Proc) {
		pa, err := cls.Nodes[0].Mem.AllocContiguous(8192)
		if err != nil {
			t.Fatal(err)
		}
		if err := cls.Nodes[0].Mem.Write(pa, []byte("pre-existing")); err != nil {
			t.Fatal(err)
		}
		c := dep.Instance(0).KernelClient()
		_, err = c.RegisterLMR(p, pa, 8192, "pre", PermRead)
		if err != nil {
			t.Fatal(err)
		}
	})
	cls.GoOn(1, "reader", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond)
		c := dep.Instance(1).KernelClient()
		h, err := c.Map(p, "pre")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 12)
		if err := c.Read(p, h, 0, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "pre-existing" {
			t.Fatalf("got %q", got)
		}
	})
	run(t, cls)
}

func TestUserLevelOpsPaySyscalls(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		kc := dep.Instance(0).KernelClient()
		uc := dep.Instance(0).UserClient()
		h, err := kc.MallocAt(p, []int{1}, 4096, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		// Warm.
		_ = kc.Write(p, h, 0, buf)
		_ = uc.Write(p, h, 0, buf)
		start := p.Now()
		_ = kc.Write(p, h, 0, buf)
		kl := p.Now() - start
		start = p.Now()
		_ = uc.Write(p, h, 0, buf)
		ul := p.Now() - start
		if ul <= kl {
			t.Fatalf("user write (%v) must exceed kernel write (%v)", ul, kl)
		}
		if ul-kl > 500*time.Nanosecond {
			t.Fatalf("syscall gap = %v, want a fraction of a microsecond", ul-kl)
		}
	})
	run(t, cls)
}

func TestNameCollision(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "a", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := c.Malloc(p, 4096, "dup", PermRead); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Malloc(p, 4096, "dup", PermRead); err != ErrNameTaken {
			t.Fatalf("err = %v, want ErrNameTaken", err)
		}
	})
	cls.GoOn(1, "b", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond)
		c := dep.Instance(1).KernelClient()
		if _, err := c.Malloc(p, 4096, "dup", PermRead); err != ErrNameTaken {
			t.Fatalf("remote err = %v, want ErrNameTaken", err)
		}
	})
	run(t, cls)
}
