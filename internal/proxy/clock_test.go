package proxy

import (
	"testing"
	"time"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/route"
	"slice/internal/xdr"
)

// TestStageClockBudget drives one LOOKUP pair and one ACCESS pair of timed
// calls through Proxy.Handle under a clock that counts its readings (each
// reading is one tick later than the last, so every lap is exactly one
// tick) and holds the µproxy to its budget: how often a request/reply pair
// may read the clock with histograms and the ring on, and that the
// cumulative counters, the stage.* histograms and the ring's stage events
// all report the same laps — which add up, with no gap and no overlap, to
// the time each packet spent between its first and last readings. Then an
// untimed LOOKUP pair reads the clock only for its timestamps, adds no lap
// and no event, and is still counted in its end-to-end and hop histograms.
func TestStageClockBudget(t *testing.T) {
	net := netsim.New(netsim.Config{})
	dirAddr := netsim.Addr{Host: 30, Port: 2049}
	server, err := net.Bind(dirAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := net.Bind(netsim.Addr{Host: 200, Port: 999})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	virtual := netsim.Addr{Host: 100, Port: 2049}
	reg := obs.NewRegistry("uproxy")
	p := New(Config{
		Net: net, Host: 99, Virtual: virtual,
		IO:    route.NewIOPolicy(nil, route.NewTable(1, []netsim.Addr{dirAddr})),
		Names: route.NewNamePolicy(route.MkdirSwitching, 0, route.NewTable(1, []netsim.Addr{dirAddr})),
		Obs:   reg,
	})
	defer p.Close()
	var reads int64
	p.now = func() int64 { reads++; return reads }

	// pair sends one call and its reply through Handle and returns how
	// many times the µproxy read the clock for the two packets. The call's
	// xid is the next one whose timing is wantTimed.
	var xid uint32
	pair := func(wantTimed bool, proc nfsproto.Proc, args, res func(*xdr.Encoder)) int64 {
		t.Helper()
		for xid++; obs.Sampled(xid) != wantTimed; xid++ {
		}
		before := reads
		for _, hop := range []struct {
			src, dst netsim.Addr
			payload  []byte
			at       *netsim.Port
		}{
			{client.Addr(), virtual, oncrpc.EncodeCall(xid, nfsproto.Program, nfsproto.Version, uint32(proc), args), server},
			{dirAddr, client.Addr(), oncrpc.EncodeReply(xid, oncrpc.AcceptSuccess, res), client},
		} {
			d, err := netsim.Build(hop.src, hop.dst, hop.payload)
			if err != nil {
				t.Fatal(err)
			}
			if v := p.Handle(d); v != netsim.Consumed {
				t.Fatalf("%v: Handle returned verdict %v, want Consumed", proc, v)
			}
			out, err := hop.at.Recv(time.Second)
			if err != nil {
				t.Fatalf("%v: the µproxy did not pass the datagram on: %v", proc, err)
			}
			netsim.FreeBuf(out)
		}
		return reads - before
	}

	dir := fhandle.Handle{Volume: 1, FileID: 42, Gen: 1, Type: uint8(attr.TypeDir)}
	child := fhandle.Handle{Volume: 1, FileID: 43, Gen: 1, Type: uint8(attr.TypeReg)}
	lookupArgs := (&nfsproto.LookupArgs{Dir: dir, Name: "f"}).Encode
	lookupRes := (&nfsproto.LookupRes{Status: nfsproto.OK, FH: child,
		Attr: nfsproto.Some(attr.Attr{Type: attr.TypeReg, Mode: 0o644, Nlink: 1, FileID: 43})}).Encode
	lookup := pair(true, nfsproto.ProcLookup, lookupArgs, lookupRes)
	access := pair(true, nfsproto.ProcAccess,
		(&nfsproto.AccessArgs{FH: child, Access: 1}).Encode,
		func(e *xdr.Encoder) { e.PutUint32(uint32(nfsproto.OK)) })
	if lookup > 10 || access > 8 {
		t.Errorf("clock reads: %d for a LOOKUP pair, %d for an ACCESS pair; the budget is 10 and 8", lookup, access)
	}

	// Each packet's laps run from its first reading to its last: with two
	// packets a pair, a pair's laps sum to its readings less two.
	st := p.Stats()
	if st.Requests != 2 || st.Responses != 2 {
		t.Fatalf("packets counted: %+v, want 2 requests and 2 responses", st)
	}
	if got, want := st.TotalNS(), uint64(lookup+access-4); got != want {
		t.Errorf("the four stages sum to %d ticks, the packets' laps to %d", got, want)
	}

	// One tick a lap makes a histogram's sample count its sum, and a stage
	// event's value the laps it settles: counters, histograms and stage
	// events must agree stage by stage, and each stage must have been
	// entered by the packets that do its work — every packet is decoded
	// and touches soft state, replies are intercepted by the pending-table
	// probe (a call's header match is not timed), calls are redirected and
	// the LOOKUP reply re-encoded (the ACCESS reply's source restore rides
	// in its soft-state lap).
	hists := reg.Snapshot().Hists
	events := reg.Events()
	var stageEvents, stageSum [numStages]uint64
	for _, ev := range events {
		if ev.Kind == obs.KindStage {
			stageEvents[ev.Layer]++
			stageSum[ev.Layer] += ev.Value
		}
	}
	for s, want := range [numStages]uint64{
		stIntercept: st.Responses,
		stDecode:    st.Requests + st.Responses,
		stRewrite:   st.Requests + 1,
		stSoftState: st.Requests + st.Responses,
	} {
		name := "stage." + obs.StageNames[s]
		if n := hists[name].Count(); n != want || p.st.ns[s].Load() != want || stageEvents[s] != want || stageSum[s] != want {
			t.Errorf("%s: %d samples, counter %d ticks, %d events of %d ticks, want %d of each",
				name, n, p.st.ns[s].Load(), stageEvents[s], stageSum[s], want)
		}
	}

	// The ring's other events are stamped with the clock's own readings: a
	// call runs from its arrival, its request's first reading, to its end,
	// its reply's last, and its hop from its forward, the request's last
	// reading, to its reply, the reply's first — consecutive readings
	// here, so one tick.
	at := map[uint32]map[obs.Kind]obs.Event{}
	for _, ev := range events {
		if at[ev.Xid] == nil {
			at[ev.Xid] = map[obs.Kind]obs.Event{}
		}
		at[ev.Xid][ev.Kind] = ev
	}
	if len(at) != 2 {
		t.Fatalf("events of %d calls in the ring, want 2", len(at))
	}
	for _, call := range at {
		proc, pairReads := nfsproto.Proc(call[obs.KindRecv].Layer), access
		if proc == nfsproto.ProcLookup {
			pairReads = lookup
		}
		if got := call[obs.KindEnd].At - call[obs.KindRecv].At; got != pairReads-1 || call[obs.KindEnd].Value != uint64(got) {
			t.Errorf("%v runs %d ticks from arrival to end (end event's value %d), its pair's first to last reading is %d",
				proc, got, call[obs.KindEnd].Value, pairReads-1)
		}
		if hop := call[obs.KindReply].At - call[obs.KindForward].At; hop != 1 || call[obs.KindForward].Layer != uint8(obs.HopDirsrv) {
			t.Errorf("%v hop: %d ticks to layer %d, want one tick to dirsrv", proc, hop, call[obs.KindForward].Layer)
		}
	}

	// An untimed pair reads the clock four times — arrival, forward,
	// the reply's arrival, and the reply's end — and takes no lap and
	// writes no event, but counts in its end-to-end and hop histograms as
	// every call does. StageStats scales the sampled laps to every packet:
	// four of the six intercepted were in the sample.
	e2e, hop := hists["e2e.nfs.lookup"].Count(), hists["hop.dirsrv"].Count()
	if untimed := pair(false, nfsproto.ProcLookup, lookupArgs, lookupRes); untimed != 4 {
		t.Errorf("an untimed LOOKUP pair read the clock %d times, want 4", untimed)
	}
	after := reg.Snapshot().Hists
	for s := range obs.StageNames {
		name := "stage." + obs.StageNames[s]
		if n, was := after[name].Count(), hists[name].Count(); n != was || p.st.ns[s].Load() != was {
			t.Errorf("%s after an untimed pair: %d samples, counter %d ticks, want %d of each", name, n, p.st.ns[s].Load(), was)
		}
	}
	if n := len(reg.Events()); n != len(events) {
		t.Errorf("%d events in the ring after an untimed pair, want %d", n, len(events))
	}
	if got := after["e2e.nfs.lookup"].Count(); got != e2e+1 {
		t.Errorf("e2e.nfs.lookup: %d samples after an untimed pair, want %d", got, e2e+1)
	}
	if got := after["hop.dirsrv"].Count(); got != hop+1 {
		t.Errorf("hop.dirsrv: %d samples after an untimed pair, want %d", got, hop+1)
	}
	scaled := p.Stats()
	if scaled.Intercepted != 6 {
		t.Fatalf("%d packets intercepted, want 6", scaled.Intercepted)
	}
	for _, f := range []struct {
		name           string
		sampled, total uint64
	}{
		{"intercept", st.InterceptNS, scaled.InterceptNS},
		{"decode", st.DecodeNS, scaled.DecodeNS},
		{"rewrite", st.RewriteNS, scaled.RewriteNS},
		{"softstate", st.SoftStateNS, scaled.SoftStateNS},
	} {
		if want := f.sampled * 6 / 4; f.total != want {
			t.Errorf("%s estimate: %d ticks from %d sampled over 4 of 6 packets, want %d", f.name, f.total, f.sampled, want)
		}
	}
}
