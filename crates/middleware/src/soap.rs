//! A SOAP-like RPC middleware (gSOAP flavour): XML text envelopes over a
//! VLink.
//!
//! The paper's motivating scenarios include "a SOAP-based monitoring system
//! of a MPI application" — a second, distributed-oriented middleware that
//! must share the node and networks with the parallel one. The envelope
//! here is a simplified XML dialect; what matters for the reproduction is
//! the text encoding cost and the coexistence behaviour, not XML fidelity.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use padico_core::{LengthPrefix, MessageReassembler, PadicoRuntime, VLink};
use simnet::{NodeId, SimWorld};

use crate::cost::MiddlewareCost;

/// A SOAP call: method name and named string parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoapCall {
    /// Method name.
    pub method: String,
    /// (name, value) parameters.
    pub params: Vec<(String, String)>,
}

impl SoapCall {
    /// Builds a call.
    pub fn new(method: &str) -> SoapCall {
        SoapCall {
            method: method.to_string(),
            params: Vec::new(),
        }
    }

    /// Adds a parameter.
    pub fn param(mut self, name: &str, value: impl ToString) -> SoapCall {
        self.params.push((name.to_string(), value.to_string()));
        self
    }

    /// Looks a parameter up.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn xml_unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&amp;", "&")
}

/// Serializes a call (or response) into an envelope.
pub fn encode_envelope(kind: &str, id: u64, call: &SoapCall) -> String {
    let mut body = String::new();
    body.push_str("<?xml version=\"1.0\"?>\n<Envelope><Body>");
    body.push_str(&format!(
        "<{} id=\"{}\" method=\"{}\">",
        kind,
        id,
        xml_escape(&call.method)
    ));
    for (name, value) in &call.params {
        body.push_str(&format!(
            "<{}>{}</{}>",
            xml_escape(name),
            xml_escape(value),
            xml_escape(name)
        ));
    }
    body.push_str(&format!("</{kind}></Body></Envelope>"));
    body
}

/// Parses an envelope produced by [`encode_envelope`].
pub fn decode_envelope(text: &str) -> Option<(String, u64, SoapCall)> {
    let start = text.find("<Body>")? + 6;
    let rest = &text[start..];
    let open_end = rest.find('>')?;
    let tag = &rest[1..open_end];
    let mut parts = tag.split_whitespace();
    let kind = parts.next()?.to_string();
    let mut id = 0u64;
    let mut method = String::new();
    for attr in parts {
        if let Some(v) = attr.strip_prefix("id=\"") {
            id = v.trim_end_matches('"').parse().ok()?;
        } else if let Some(v) = attr.strip_prefix("method=\"") {
            method = xml_unescape(v.trim_end_matches('"'));
        }
    }
    let mut call = SoapCall::new(&method);
    let mut cursor = &rest[open_end + 1..];
    while let Some(p_open) = cursor.find('<') {
        if cursor[p_open..].starts_with("</") {
            break;
        }
        let p_end = cursor[p_open..].find('>')? + p_open;
        let name = cursor[p_open + 1..p_end].to_string();
        let close = format!("</{name}>");
        let v_end = cursor.find(&close)?;
        let value = xml_unescape(&cursor[p_end + 1..v_end]);
        call.params.push((xml_unescape(&name), value));
        cursor = &cursor[v_end + close.len()..];
    }
    Some((kind, id, call))
}

type SoapHandler = Box<dyn FnMut(&mut SimWorld, SoapCall) -> SoapCall>;
type SoapReply = Box<dyn FnOnce(&mut SimWorld, SoapCall)>;

struct Inner {
    runtime: PadicoRuntime,
    cost: MiddlewareCost,
    handlers: HashMap<String, SoapHandler>,
    pending: HashMap<u64, SoapReply>,
    next_id: u64,
    connections: HashMap<(NodeId, u16), Rc<Conn>>,
}

struct Conn {
    vlink: VLink,
    rx: RefCell<MessageReassembler>,
}

/// A SOAP endpoint (client and server in one, like gSOAP).
#[derive(Clone)]
pub struct SoapEndpoint {
    inner: Rc<RefCell<Inner>>,
}

impl SoapEndpoint {
    /// Creates an endpoint over a runtime.
    pub fn new(runtime: PadicoRuntime) -> SoapEndpoint {
        SoapEndpoint {
            inner: Rc::new(RefCell::new(Inner {
                runtime,
                cost: MiddlewareCost::gsoap(),
                handlers: HashMap::new(),
                pending: HashMap::new(),
                next_id: 1,
                connections: HashMap::new(),
            })),
        }
    }

    /// Registers a method handler and starts serving on `service`.
    pub fn serve(
        &self,
        world: &mut SimWorld,
        service: u16,
        method: &str,
        handler: impl FnMut(&mut SimWorld, SoapCall) -> SoapCall + 'static,
    ) {
        self.inner
            .borrow_mut()
            .handlers
            .insert(method.to_string(), Box::new(handler));
        let runtime = self.inner.borrow().runtime.clone();
        let ep = self.clone();
        runtime.vlink_listen(world, service, move |world, vlink| {
            ep.attach(world, vlink);
        });
    }

    /// Calls `call.method` on `remote:service`; `reply` receives the
    /// response call structure.
    pub fn call(
        &self,
        world: &mut SimWorld,
        remote: NodeId,
        service: u16,
        call: SoapCall,
        reply: impl FnOnce(&mut SimWorld, SoapCall) + 'static,
    ) {
        let id = {
            let mut st = self.inner.borrow_mut();
            let id = st.next_id;
            st.next_id += 1;
            st.pending.insert(id, Box::new(reply));
            id
        };
        let conn = self.connection_to(world, remote, service);
        let envelope = encode_envelope("Call", id, &call);
        let cost = self.inner.borrow().cost.send_cost(envelope.len());
        let vlink = conn.vlink.clone();
        world.schedule_after(cost, move |world| {
            vlink.post_write_bytes(world, LengthPrefix::Hex8.frame(envelope.as_bytes()));
        });
    }

    fn connection_to(&self, world: &mut SimWorld, node: NodeId, service: u16) -> Rc<Conn> {
        if let Some(c) = self
            .inner
            .borrow()
            .connections
            .get(&(node, service))
            .cloned()
        {
            return c;
        }
        let runtime = self.inner.borrow().runtime.clone();
        let vlink = runtime.vlink_connect(world, node, service);
        let conn = self.attach(world, vlink);
        self.inner
            .borrow_mut()
            .connections
            .insert((node, service), conn.clone());
        conn
    }

    fn attach(&self, _world: &mut SimWorld, vlink: VLink) -> Rc<Conn> {
        let conn = Rc::new(Conn {
            vlink: vlink.clone(),
            rx: RefCell::new(MessageReassembler::new(LengthPrefix::Hex8)),
        });
        let ep = self.clone();
        let conn2 = conn.clone();
        vlink.set_handler(move |world, event| {
            if event == padico_core::VLinkEvent::Readable {
                ep.on_readable(world, &conn2);
            }
        });
        conn
    }

    fn on_readable(&self, world: &mut SimWorld, conn: &Rc<Conn>) {
        let mut rx = conn.rx.borrow_mut();
        rx.read_from(world, &conn.vlink);
        while let Some(frame) = rx.next_message() {
            // Decoded once per complete envelope: a multi-byte character
            // may straddle the chunks the stream delivered.
            let envelope = String::from_utf8_lossy(&frame);
            let Some((kind, id, call)) = decode_envelope(&envelope) else {
                continue;
            };
            let cost = self.inner.borrow().cost.recv_cost(envelope.len());
            let ep = self.clone();
            let conn = conn.clone();
            world.schedule_after(cost, move |world| match kind.as_str() {
                "Call" => ep.dispatch(world, &conn, id, call),
                "Response" => {
                    let cb = ep.inner.borrow_mut().pending.remove(&id);
                    if let Some(cb) = cb {
                        cb(world, call);
                    }
                }
                _ => {}
            });
        }
    }

    fn dispatch(&self, world: &mut SimWorld, conn: &Rc<Conn>, id: u64, call: SoapCall) {
        let handler = self.inner.borrow_mut().handlers.remove(&call.method);
        let response = match handler {
            Some(mut h) => {
                let resp = h(world, call.clone());
                self.inner
                    .borrow_mut()
                    .handlers
                    .entry(call.method.clone())
                    .or_insert(h);
                resp
            }
            None => SoapCall::new("Fault").param("faultstring", "unknown method"),
        };
        let envelope = encode_envelope("Response", id, &response);
        let cost = self.inner.borrow().cost.send_cost(envelope.len());
        let vlink = conn.vlink.clone();
        world.schedule_after(cost, move |world| {
            vlink.post_write_bytes(world, LengthPrefix::Hex8.frame(envelope.as_bytes()));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_core::{runtimes_for_cluster, SelectorPreferences};
    use simnet::topology;

    #[test]
    fn envelope_roundtrip() {
        let call = SoapCall::new("getTemperature")
            .param("node", "cluster-a<3>")
            .param("step", 42);
        let text = encode_envelope("Call", 9, &call);
        let (kind, id, decoded) = decode_envelope(&text).unwrap();
        assert_eq!(kind, "Call");
        assert_eq!(id, 9);
        assert_eq!(decoded, call);
        assert_eq!(decoded.get("step"), Some("42"));
    }

    #[test]
    fn rpc_roundtrip_over_the_framework() {
        let p = topology::san_pair(101);
        let mut world = p.world;
        let nodes = vec![p.a, p.b];
        let rts = runtimes_for_cluster(&mut world, p.san, &nodes, SelectorPreferences::default());
        let server = SoapEndpoint::new(rts[1].clone());
        let client = SoapEndpoint::new(rts[0].clone());
        server.serve(&mut world, 1200, "monitor.status", |_w, call| {
            SoapCall::new("statusResponse")
                .param("job", call.get("job").unwrap_or("?"))
                .param("progress", "73%")
        });
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        client.call(
            &mut world,
            nodes[1],
            1200,
            SoapCall::new("monitor.status").param("job", "cfd-17"),
            move |_w, resp| *g.borrow_mut() = Some(resp),
        );
        world.run();
        let resp = got.borrow().clone().unwrap();
        assert_eq!(resp.method, "statusResponse");
        assert_eq!(resp.get("job"), Some("cfd-17"));
        assert_eq!(resp.get("progress"), Some("73%"));
    }

    #[test]
    fn multibyte_text_survives_chunked_delivery() {
        // Over TCP the envelope arrives in segments, which split the
        // three-byte "€" at arbitrary points.
        for repeat in [1000, 5000] {
            let p = topology::pair_over(107, simnet::NetworkSpec::ethernet_100());
            let mut world = p.world;
            let nodes = vec![p.a, p.b];
            let rts =
                padico_core::runtimes_for_lan(&mut world, &nodes, SelectorPreferences::default());
            let server = SoapEndpoint::new(rts[1].clone());
            let client = SoapEndpoint::new(rts[0].clone());
            server.serve(&mut world, 1400, "echo", |_w, call| {
                SoapCall::new("echoResponse").param("text", call.get("text").unwrap_or(""))
            });
            let text = "€".repeat(repeat);
            let got = Rc::new(RefCell::new(None));
            let g = got.clone();
            client.call(
                &mut world,
                nodes[1],
                1400,
                SoapCall::new("echo").param("text", &text),
                move |_w, resp| *g.borrow_mut() = Some(resp),
            );
            world.run();
            let resp = got.borrow().clone().expect("reply delivered");
            assert_eq!(resp.get("text").map(str::len), Some(3 * repeat));
            assert_eq!(resp.get("text"), Some(text.as_str()));
        }
    }

    #[test]
    fn unknown_method_faults() {
        let p = topology::san_pair(103);
        let mut world = p.world;
        let nodes = vec![p.a, p.b];
        let rts = runtimes_for_cluster(&mut world, p.san, &nodes, SelectorPreferences::default());
        let server = SoapEndpoint::new(rts[1].clone());
        let client = SoapEndpoint::new(rts[0].clone());
        server.serve(&mut world, 1300, "known", |_w, _c| SoapCall::new("ok"));
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        client.call(
            &mut world,
            nodes[1],
            1300,
            SoapCall::new("unknown"),
            move |_w, resp| *g.borrow_mut() = Some(resp),
        );
        world.run();
        assert_eq!(got.borrow().as_ref().unwrap().method, "Fault");
    }
}
