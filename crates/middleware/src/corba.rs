//! A CORBA-like object request broker over the VLink interface.
//!
//! The paper ports four real ORBs (omniORB 3, omniORB 4, Mico, ORBacus)
//! onto PadicoTM through the SysWrap personality and shows that the
//! zero-copy ORBs reach the Myrinet wire rate while the copying ORBs stall
//! at 55–63 MB/s. This module reproduces the communication path of such an
//! ORB: CDR marshalling (with alignment), GIOP-style request/reply
//! messages, object references and servants — with a per-implementation
//! cost profile that models the marshalling-engine difference.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use padico_core::{LengthPrefix, MessageReassembler, PadicoRuntime, VLink};
use simnet::{NodeId, SimWorld};

use crate::cost::MiddlewareCost;

// --------------------------------------------------------------------- //
// IDL values and CDR marshalling
// --------------------------------------------------------------------- //

/// A dynamically-typed IDL value (the subset needed by the experiments and
/// examples).
#[derive(Debug, Clone, PartialEq)]
pub enum IdlValue {
    /// `void`
    Void,
    /// `boolean`
    Bool(bool),
    /// `long`
    Long(i32),
    /// `long long`
    LongLong(i64),
    /// `double`
    Double(f64),
    /// `string`
    Str(String),
    /// `sequence<octet>` — the bulk-data type used by the bandwidth tests.
    Octets(Bytes),
    /// `sequence<any>`
    Sequence(Vec<IdlValue>),
}

impl IdlValue {
    /// Approximate marshalled payload size (used for cost accounting).
    pub fn payload_size(&self) -> usize {
        match self {
            IdlValue::Void => 0,
            IdlValue::Bool(_) => 1,
            IdlValue::Long(_) => 4,
            IdlValue::LongLong(_) | IdlValue::Double(_) => 8,
            IdlValue::Str(s) => 4 + s.len() + 1,
            IdlValue::Octets(b) => 4 + b.len(),
            IdlValue::Sequence(v) => 4 + v.iter().map(|x| 1 + x.payload_size()).sum::<usize>(),
        }
    }
}

fn align(buf: &mut BytesMut, to: usize) {
    while !buf.len().is_multiple_of(to) {
        buf.put_u8(0);
    }
}

fn skip_align(buf: &mut Bytes, consumed: &mut usize, to: usize) {
    while !(*consumed).is_multiple_of(to) && buf.has_remaining() {
        buf.advance(1);
        *consumed += 1;
    }
}

/// Encodes a value in CDR (big-endian flavour, natural alignment).
pub fn cdr_encode(value: &IdlValue, buf: &mut BytesMut) {
    match value {
        IdlValue::Void => buf.put_u8(0),
        IdlValue::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(*b as u8);
        }
        IdlValue::Long(v) => {
            buf.put_u8(2);
            align(buf, 4);
            buf.put_i32(*v);
        }
        IdlValue::LongLong(v) => {
            buf.put_u8(3);
            align(buf, 8);
            buf.put_i64(*v);
        }
        IdlValue::Double(v) => {
            buf.put_u8(4);
            align(buf, 8);
            buf.put_f64(*v);
        }
        IdlValue::Str(s) => {
            buf.put_u8(5);
            align(buf, 4);
            buf.put_u32(s.len() as u32 + 1);
            buf.extend_from_slice(s.as_bytes());
            buf.put_u8(0);
        }
        IdlValue::Octets(b) => {
            buf.put_u8(6);
            align(buf, 4);
            buf.put_u32(b.len() as u32);
            buf.extend_from_slice(b);
        }
        IdlValue::Sequence(items) => {
            buf.put_u8(7);
            align(buf, 4);
            buf.put_u32(items.len() as u32);
            for item in items {
                cdr_encode(item, buf);
            }
        }
    }
}

/// Decodes one CDR value. `consumed` tracks the absolute offset so that
/// alignment matches the encoder.
pub fn cdr_decode(buf: &mut Bytes, consumed: &mut usize) -> Option<IdlValue> {
    if !buf.has_remaining() {
        return None;
    }
    let kind = buf.get_u8();
    *consumed += 1;
    match kind {
        0 => Some(IdlValue::Void),
        1 => {
            let b = buf.get_u8();
            *consumed += 1;
            Some(IdlValue::Bool(b != 0))
        }
        2 => {
            skip_align(buf, consumed, 4);
            if buf.remaining() < 4 {
                return None;
            }
            *consumed += 4;
            Some(IdlValue::Long(buf.get_i32()))
        }
        3 => {
            skip_align(buf, consumed, 8);
            if buf.remaining() < 8 {
                return None;
            }
            *consumed += 8;
            Some(IdlValue::LongLong(buf.get_i64()))
        }
        4 => {
            skip_align(buf, consumed, 8);
            if buf.remaining() < 8 {
                return None;
            }
            *consumed += 8;
            Some(IdlValue::Double(buf.get_f64()))
        }
        5 => {
            skip_align(buf, consumed, 4);
            if buf.remaining() < 4 {
                return None;
            }
            let len = buf.get_u32() as usize;
            *consumed += 4;
            if buf.remaining() < len || len == 0 {
                return None;
            }
            let s = buf.split_to(len - 1);
            buf.advance(1); // trailing NUL
            *consumed += len;
            Some(IdlValue::Str(String::from_utf8_lossy(&s).into_owned()))
        }
        6 => {
            skip_align(buf, consumed, 4);
            if buf.remaining() < 4 {
                return None;
            }
            let len = buf.get_u32() as usize;
            *consumed += 4;
            if buf.remaining() < len {
                return None;
            }
            let b = buf.split_to(len);
            *consumed += len;
            Some(IdlValue::Octets(b))
        }
        7 => {
            skip_align(buf, consumed, 4);
            if buf.remaining() < 4 {
                return None;
            }
            let len = buf.get_u32() as usize;
            *consumed += 4;
            let mut items = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                items.push(cdr_decode(buf, consumed)?);
            }
            Some(IdlValue::Sequence(items))
        }
        _ => None,
    }
}

// --------------------------------------------------------------------- //
// ORB profiles
// --------------------------------------------------------------------- //

/// Which ORB implementation is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrbImpl {
    /// omniORB 3 (zero-copy marshalling).
    OmniOrb3,
    /// omniORB 4 (zero-copy marshalling, lower per-call cost).
    OmniOrb4,
    /// Mico 2.3 (copies on marshal and unmarshal).
    Mico,
    /// ORBacus 4.0 (copies on marshal and unmarshal).
    Orbacus,
}

impl OrbImpl {
    /// Cost profile of this implementation.
    pub fn cost(&self) -> MiddlewareCost {
        match self {
            OrbImpl::OmniOrb3 => MiddlewareCost::omniorb3(),
            OrbImpl::OmniOrb4 => MiddlewareCost::omniorb4(),
            OrbImpl::Mico => MiddlewareCost::mico(),
            OrbImpl::Orbacus => MiddlewareCost::orbacus(),
        }
    }

    /// All modelled implementations (used by the Figure 3 sweep).
    pub fn all() -> [OrbImpl; 4] {
        [
            OrbImpl::OmniOrb3,
            OrbImpl::OmniOrb4,
            OrbImpl::Mico,
            OrbImpl::Orbacus,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.cost().name
    }
}

// --------------------------------------------------------------------- //
// GIOP-like messages
// --------------------------------------------------------------------- //

const MSG_REQUEST: u8 = 0;
const MSG_REPLY: u8 = 1;

fn encode_message(
    msg_type: u8,
    request_id: u64,
    object_key: &str,
    operation: &str,
    body: &IdlValue,
) -> Bytes {
    // Sized for the header fields plus the body's tag byte, alignment
    // padding and value, so a bulk body is copied in without regrowing.
    let mut payload =
        BytesMut::with_capacity(13 + object_key.len() + operation.len() + 8 + body.payload_size());
    payload.put_u8(msg_type);
    payload.put_u64(request_id);
    payload.put_u16(object_key.len() as u16);
    payload.extend_from_slice(object_key.as_bytes());
    payload.put_u16(operation.len() as u16);
    payload.extend_from_slice(operation.as_bytes());
    cdr_encode(body, &mut payload);
    // Length-prefixed framing (GIOP header). CDR alignment is relative to
    // the payload start, so the prefix is added in front afterwards.
    LengthPrefix::U32Be.frame(&payload)
}

struct DecodedMessage {
    msg_type: u8,
    request_id: u64,
    object_key: String,
    operation: String,
    body: IdlValue,
}

/// Decodes one GIOP payload (without its length prefix). Octet sequences
/// in the body share `buf`'s storage.
fn decode_message(mut buf: Bytes) -> Option<DecodedMessage> {
    let mut consumed = 0usize;
    if buf.remaining() < 13 {
        return None;
    }
    let msg_type = buf.get_u8();
    let request_id = buf.get_u64();
    let klen = buf.get_u16() as usize;
    consumed += 11;
    if buf.remaining() < klen {
        return None;
    }
    let object_key = String::from_utf8_lossy(&buf.split_to(klen)).into_owned();
    consumed += klen;
    if buf.remaining() < 2 {
        return None;
    }
    let olen = buf.get_u16() as usize;
    consumed += 2;
    if buf.remaining() < olen {
        return None;
    }
    let operation = String::from_utf8_lossy(&buf.split_to(olen)).into_owned();
    consumed += olen;
    let body = cdr_decode(&mut buf, &mut consumed)?;
    Some(DecodedMessage {
        msg_type,
        request_id,
        object_key,
        operation,
        body,
    })
}

// --------------------------------------------------------------------- //
// The ORB
// --------------------------------------------------------------------- //

/// A servant: invoked with (operation, argument), returns the result.
pub type Servant = Box<dyn FnMut(&mut SimWorld, &str, IdlValue) -> IdlValue>;

type ReplyCallback = Box<dyn FnOnce(&mut SimWorld, IdlValue)>;

struct OrbInner {
    runtime: PadicoRuntime,
    implementation: OrbImpl,
    cost: MiddlewareCost,
    servants: HashMap<String, Servant>,
    pending: HashMap<u64, ReplyCallback>,
    next_request: u64,
    /// Established client connections, keyed by (node, service).
    connections: HashMap<(NodeId, u16), Rc<OrbConnection>>,
    requests_sent: u64,
    requests_served: u64,
    /// Whether the metrics collector has been registered (done lazily on
    /// the first call that carries a `SimWorld`).
    metrics_registered: bool,
}

/// Request accounting of one ORB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrbStats {
    /// Requests this ORB sent as a client.
    pub requests_sent: u64,
    /// Requests this ORB served as a servant side.
    pub requests_served: u64,
}

struct OrbConnection {
    vlink: VLink,
    rx: RefCell<MessageReassembler>,
}

/// An object reference: where the object lives and how to name it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjRef {
    /// Node hosting the object.
    pub node: NodeId,
    /// VLink service (the "port" of the object adapter).
    pub service: u16,
    /// Key of the object within its adapter.
    pub object_key: String,
}

/// A CORBA-like ORB on one node.
#[derive(Clone)]
pub struct Orb {
    inner: Rc<RefCell<OrbInner>>,
}

impl Orb {
    /// Creates an ORB of the given implementation flavour over a runtime.
    pub fn new(runtime: PadicoRuntime, implementation: OrbImpl) -> Orb {
        Orb {
            inner: Rc::new(RefCell::new(OrbInner {
                runtime,
                implementation,
                cost: implementation.cost(),
                servants: HashMap::new(),
                pending: HashMap::new(),
                next_request: 1,
                connections: HashMap::new(),
                requests_sent: 0,
                requests_served: 0,
                metrics_registered: false,
            })),
        }
    }

    /// Registers the `mw.corba.*{node=N}` collector once; called from the
    /// world-bearing entry points (`activate`, `invoke`) because
    /// [`Orb::new`] has no access to the world.
    fn ensure_metrics(&self, world: &mut SimWorld) {
        let first = {
            let mut st = self.inner.borrow_mut();
            !std::mem::replace(&mut st.metrics_registered, true)
        };
        if !first {
            return;
        }
        let node = self.inner.borrow().runtime.node();
        let node_label = node.0.to_string();
        let weak = Rc::downgrade(&self.inner);
        world.metrics.register_collector(move |b| {
            let Some(inner) = weak.upgrade() else { return };
            let st = inner.borrow();
            let labels: &[(&str, &str)] = &[("node", node_label.as_str())];
            b.counter("mw.corba.requests_sent", labels, st.requests_sent);
            b.counter("mw.corba.requests_served", labels, st.requests_served);
        });
    }

    /// Which implementation this ORB models.
    pub fn implementation(&self) -> OrbImpl {
        self.inner.borrow().implementation
    }

    /// Request accounting snapshot.
    pub fn stats(&self) -> OrbStats {
        let st = self.inner.borrow();
        OrbStats {
            requests_sent: st.requests_sent,
            requests_served: st.requests_served,
        }
    }

    /// Activates the object adapter: listens on `service` and serves
    /// registered objects.
    pub fn activate(&self, world: &mut SimWorld, service: u16) {
        self.ensure_metrics(world);
        let runtime = self.inner.borrow().runtime.clone();
        let orb = self.clone();
        runtime.vlink_listen(world, service, move |world, vlink| {
            orb.attach_connection(world, vlink, true);
        });
    }

    /// Registers a servant under `object_key`.
    pub fn register_servant(
        &self,
        object_key: &str,
        servant: impl FnMut(&mut SimWorld, &str, IdlValue) -> IdlValue + 'static,
    ) {
        self.inner
            .borrow_mut()
            .servants
            .insert(object_key.to_string(), Box::new(servant));
    }

    /// Builds an object reference.
    pub fn object_ref(&self, node: NodeId, service: u16, object_key: &str) -> ObjRef {
        ObjRef {
            node,
            service,
            object_key: object_key.to_string(),
        }
    }

    /// Invokes `operation(arg)` on the referenced object; `reply` runs with
    /// the result (asynchronous, like a deferred synchronous CORBA call).
    pub fn invoke(
        &self,
        world: &mut SimWorld,
        objref: &ObjRef,
        operation: &str,
        arg: IdlValue,
        reply: impl FnOnce(&mut SimWorld, IdlValue) + 'static,
    ) {
        self.ensure_metrics(world);
        let request_id = {
            let mut st = self.inner.borrow_mut();
            let id = st.next_request;
            st.next_request += 1;
            st.requests_sent += 1;
            st.pending.insert(id, Box::new(reply));
            id
        };
        let conn = self.connection_to(world, objref.node, objref.service);
        let wire = encode_message(MSG_REQUEST, request_id, &objref.object_key, operation, &arg);
        let cost = self.inner.borrow().cost.send_cost(arg.payload_size());
        let vlink = conn.vlink.clone();
        world.schedule_after(cost, move |world| {
            vlink.post_write_bytes(world, wire);
        });
    }

    fn connection_to(&self, world: &mut SimWorld, node: NodeId, service: u16) -> Rc<OrbConnection> {
        let existing = self
            .inner
            .borrow()
            .connections
            .get(&(node, service))
            .cloned();
        if let Some(c) = existing {
            return c;
        }
        let runtime = self.inner.borrow().runtime.clone();
        let vlink = runtime.vlink_connect(world, node, service);
        let conn = self.attach_connection(world, vlink, false);
        self.inner
            .borrow_mut()
            .connections
            .insert((node, service), conn.clone());
        conn
    }

    fn attach_connection(
        &self,
        _world: &mut SimWorld,
        vlink: VLink,
        _server_side: bool,
    ) -> Rc<OrbConnection> {
        let conn = Rc::new(OrbConnection {
            vlink: vlink.clone(),
            rx: RefCell::new(MessageReassembler::new(LengthPrefix::U32Be)),
        });
        let orb = self.clone();
        let conn2 = conn.clone();
        vlink.set_handler(move |world, event| {
            if event == padico_core::VLinkEvent::Readable {
                orb.on_readable(world, &conn2);
            }
        });
        conn
    }

    fn on_readable(&self, world: &mut SimWorld, conn: &Rc<OrbConnection>) {
        let mut rx = conn.rx.borrow_mut();
        rx.read_from(world, &conn.vlink);
        while let Some(frame) = rx.next_message() {
            let Some(msg) = decode_message(frame) else {
                continue;
            };
            match msg.msg_type {
                MSG_REQUEST => {
                    // Charge the server-side unmarshalling cost, then run
                    // the servant and send the reply.
                    let cost = self.inner.borrow().cost.recv_cost(msg.body.payload_size());
                    let orb = self.clone();
                    let conn = conn.clone();
                    world.schedule_after(cost, move |world| {
                        orb.serve(
                            world,
                            &conn,
                            msg.request_id,
                            &msg.object_key,
                            &msg.operation,
                            msg.body,
                        );
                    });
                }
                MSG_REPLY => {
                    let cost = self.inner.borrow().cost.recv_cost(msg.body.payload_size());
                    let orb = self.clone();
                    world.schedule_after(cost, move |world| {
                        let cb = orb.inner.borrow_mut().pending.remove(&msg.request_id);
                        if let Some(cb) = cb {
                            cb(world, msg.body);
                        }
                    });
                }
                _ => {}
            }
        }
    }

    fn serve(
        &self,
        world: &mut SimWorld,
        conn: &Rc<OrbConnection>,
        request_id: u64,
        object_key: &str,
        operation: &str,
        arg: IdlValue,
    ) {
        // Take the servant out while it runs so it may itself use the ORB.
        let servant = {
            let mut st = self.inner.borrow_mut();
            st.requests_served += 1;
            st.servants.remove(object_key)
        };
        let result = match servant {
            Some(mut servant) => {
                let result = servant(world, operation, arg);
                self.inner
                    .borrow_mut()
                    .servants
                    .entry(object_key.to_string())
                    .or_insert(servant);
                result
            }
            None => IdlValue::Str(format!("OBJECT_NOT_EXIST: {object_key}")),
        };
        let wire = encode_message(MSG_REPLY, request_id, object_key, operation, &result);
        let cost = self.inner.borrow().cost.send_cost(result.payload_size());
        let vlink = conn.vlink.clone();
        world.schedule_after(cost, move |world| {
            vlink.post_write_bytes(world, wire);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_core::{runtimes_for_cluster, SelectorPreferences};
    use simnet::topology;
    use std::cell::Cell;

    #[test]
    fn cdr_roundtrip_all_types() {
        let values = vec![
            IdlValue::Void,
            IdlValue::Bool(true),
            IdlValue::Long(-42),
            IdlValue::LongLong(1 << 40),
            IdlValue::Double(3.25),
            IdlValue::Str("grid computing".to_string()),
            IdlValue::Octets(Bytes::from_static(b"\x00\x01\x02raw")),
            IdlValue::Sequence(vec![
                IdlValue::Long(1),
                IdlValue::Str("nested".to_string()),
                IdlValue::Sequence(vec![IdlValue::Bool(false)]),
            ]),
        ];
        for v in values {
            let mut buf = BytesMut::new();
            cdr_encode(&v, &mut buf);
            let mut bytes = buf.freeze();
            let mut consumed = 0;
            let decoded = cdr_decode(&mut bytes, &mut consumed).unwrap();
            assert_eq!(decoded, v);
        }
    }

    #[test]
    fn giop_message_roundtrip() {
        let wire = encode_message(MSG_REQUEST, 7, "calculator", "add", &IdlValue::Long(3));
        let msg = decode_message(wire.slice(4..)).unwrap();
        assert_eq!(msg.msg_type, MSG_REQUEST);
        assert_eq!(msg.request_id, 7);
        assert_eq!(msg.object_key, "calculator");
        assert_eq!(msg.operation, "add");
        assert_eq!(msg.body, IdlValue::Long(3));
    }

    fn orb_pair(implementation: OrbImpl) -> (SimWorld, Orb, Orb, Vec<simnet::NodeId>) {
        let p = topology::san_pair(91);
        let mut world = p.world;
        let nodes = vec![p.a, p.b];
        let rts = runtimes_for_cluster(&mut world, p.san, &nodes, SelectorPreferences::default());
        let client = Orb::new(rts[0].clone(), implementation);
        let server = Orb::new(rts[1].clone(), implementation);
        (world, client, server, nodes)
    }

    #[test]
    fn remote_invocation_over_the_san() {
        let (mut world, client, server, nodes) = orb_pair(OrbImpl::OmniOrb4);
        server.register_servant("calculator", |_w, op, arg| match (op, arg) {
            ("add", IdlValue::Sequence(args)) => {
                if let (IdlValue::Long(a), IdlValue::Long(b)) = (&args[0], &args[1]) {
                    IdlValue::Long(a + b)
                } else {
                    IdlValue::Void
                }
            }
            _ => IdlValue::Void,
        });
        server.activate(&mut world, 1050);
        let objref = client.object_ref(nodes[1], 1050, "calculator");
        let result = Rc::new(RefCell::new(None));
        let r = result.clone();
        client.invoke(
            &mut world,
            &objref,
            "add",
            IdlValue::Sequence(vec![IdlValue::Long(40), IdlValue::Long(2)]),
            move |_w, reply| *r.borrow_mut() = Some(reply),
        );
        world.run();
        assert_eq!(*result.borrow(), Some(IdlValue::Long(42)));
        assert_eq!(client.stats().requests_sent, 1);
        assert_eq!(server.stats().requests_served, 1);
    }

    #[test]
    fn unknown_object_returns_error_reply() {
        let (mut world, client, server, nodes) = orb_pair(OrbImpl::OmniOrb3);
        server.activate(&mut world, 1060);
        let objref = client.object_ref(nodes[1], 1060, "ghost");
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        client.invoke(
            &mut world,
            &objref,
            "poke",
            IdlValue::Void,
            move |_w, reply| {
                match reply {
                    IdlValue::Str(s) => assert!(s.contains("OBJECT_NOT_EXIST")),
                    other => panic!("unexpected reply {other:?}"),
                }
                g.set(true);
            },
        );
        world.run();
        assert!(got.get());
    }

    #[test]
    fn bulk_octets_reach_the_servant_intact() {
        let (mut world, client, server, nodes) = orb_pair(OrbImpl::OmniOrb4);
        let received = Rc::new(RefCell::new(None));
        let r = received.clone();
        server.register_servant("sink", move |_w, _op, arg| {
            *r.borrow_mut() = Some(arg);
            IdlValue::Void
        });
        server.activate(&mut world, 1075);
        let objref = client.object_ref(nodes[1], 1075, "sink");
        let sent: Vec<u8> = (0..(1 << 20) + 3).map(|i| (i % 251) as u8).collect();
        let replied = Rc::new(Cell::new(false));
        let d = replied.clone();
        let payload = IdlValue::Octets(Bytes::from(sent.clone()));
        client.invoke(&mut world, &objref, "put", payload, move |_w, _| {
            d.set(true)
        });
        world.run();
        assert!(replied.get());
        let got = received.borrow_mut().take();
        match got {
            Some(IdlValue::Octets(got)) => assert!(got[..] == sent[..], "payload corrupted"),
            other => panic!("servant got {other:?}"),
        }
    }

    #[test]
    fn copying_orb_is_slower_than_zero_copy_orb_for_bulk_data() {
        let measure = |implementation: OrbImpl| -> f64 {
            let (mut world, client, server, nodes) = orb_pair(implementation);
            server.register_servant("sink", |_w, _op, _arg| IdlValue::Void);
            server.activate(&mut world, 1070);
            let objref = client.object_ref(nodes[1], 1070, "sink");
            let done_at = Rc::new(Cell::new(0.0));
            let d = done_at.clone();
            let payload = IdlValue::Octets(Bytes::from(vec![0u8; 1_000_000]));
            client.invoke(&mut world, &objref, "put", payload, move |world, _| {
                d.set(world.now().as_secs_f64())
            });
            world.run();
            done_at.get()
        };
        let omni = measure(OrbImpl::OmniOrb4);
        let mico = measure(OrbImpl::Mico);
        assert!(
            mico > omni * 2.0,
            "Mico ({mico:.4}s) should be several times slower than omniORB ({omni:.4}s) for 1 MB"
        );
    }

    #[test]
    fn two_orbs_and_mpi_can_share_a_node() {
        // Regression-style test of the paper's coexistence claim at the ORB
        // level: two different services active on the same runtime.
        let (mut world, client, server, nodes) = orb_pair(OrbImpl::OmniOrb4);
        server.register_servant("echo", |_w, _op, arg| arg);
        server.activate(&mut world, 1080);
        let second = Orb::new(
            {
                let st = server.inner.borrow();
                st.runtime.clone()
            },
            OrbImpl::Mico,
        );
        second.register_servant("echo2", |_w, _op, arg| arg);
        second.activate(&mut world, 1081);

        let hits = Rc::new(Cell::new(0));
        for (service, key) in [(1080u16, "echo"), (1081u16, "echo2")] {
            let objref = client.object_ref(nodes[1], service, key);
            let h = hits.clone();
            client.invoke(
                &mut world,
                &objref,
                "ping",
                IdlValue::Long(1),
                move |_w, reply| {
                    assert_eq!(reply, IdlValue::Long(1));
                    h.set(h.get() + 1);
                },
            );
        }
        world.run();
        assert_eq!(hits.get(), 2);
    }
}
