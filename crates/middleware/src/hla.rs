//! A minimal HLA-RTI (High Level Architecture run-time infrastructure).
//!
//! The paper ports the Certi HLA implementation onto PadicoTM; HLA is the
//! distributed-simulation middleware of its coexistence scenarios. This
//! module implements the small subset needed to exercise that role: one
//! federation per RTI gateway node, federates joining over VLink,
//! publish/subscribe on object classes, attribute updates reflected to
//! subscribers, and conservative time management (time-advance requests
//! granted when every regulating federate has reached the requested time).

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use padico_core::{LengthPrefix, MessageReassembler, PadicoRuntime, VLink, VLinkEvent};
use simnet::{NodeId, SimWorld};

use crate::cost::MiddlewareCost;

/// Callback invoked when a subscribed attribute update is reflected.
pub type ReflectCallback = Box<dyn FnMut(&mut SimWorld, String, String, f64)>;
/// Callback invoked when a time advance is granted.
pub type GrantCallback = Box<dyn FnMut(&mut SimWorld, f64)>;

// Wire: simple line protocol, length-prefixed.
fn frame(parts: &[&str]) -> Bytes {
    LengthPrefix::U32Be.frame(parts.join("\x1f").as_bytes())
}

struct FederateState {
    name: String,
    vlink: VLink,
    subscriptions: Vec<String>,
    regulating: bool,
    current_time: f64,
    pending_request: Option<f64>,
}

struct RtigInner {
    cost: MiddlewareCost,
    federates: Vec<Rc<RefCell<FederateState>>>,
}

/// The RTI gateway (rtig) process: coordinates one federation.
#[derive(Clone)]
pub struct RtiGateway {
    inner: Rc<RefCell<RtigInner>>,
}

impl RtiGateway {
    /// Starts the gateway on `service`.
    pub fn new(world: &mut SimWorld, runtime: &PadicoRuntime, service: u16) -> RtiGateway {
        let gw = RtiGateway {
            inner: Rc::new(RefCell::new(RtigInner {
                cost: MiddlewareCost::hla_certi(),
                federates: Vec::new(),
            })),
        };
        let gw2 = gw.clone();
        runtime.vlink_listen(world, service, move |world, vlink| {
            gw2.attach_federate(world, vlink);
        });
        gw
    }

    /// Number of joined federates.
    pub fn federate_count(&self) -> usize {
        self.inner.borrow().federates.len()
    }

    fn attach_federate(&self, _world: &mut SimWorld, vlink: VLink) {
        let state = Rc::new(RefCell::new(FederateState {
            name: String::new(),
            vlink: vlink.clone(),
            subscriptions: Vec::new(),
            regulating: false,
            current_time: 0.0,
            pending_request: None,
        }));
        self.inner.borrow_mut().federates.push(state.clone());
        let gw = self.clone();
        let link = vlink.clone();
        let mut rx = MessageReassembler::new(LengthPrefix::U32Be);
        vlink.set_handler(move |world, event| {
            if event != VLinkEvent::Readable {
                return;
            }
            rx.read_from(world, &link);
            while let Some(body) = rx.next_message() {
                let text = String::from_utf8_lossy(&body).into_owned();
                let parts: Vec<String> = text.split('\x1f').map(|s| s.to_string()).collect();
                gw.handle(world, &state, &parts);
            }
        });
    }

    fn handle(&self, world: &mut SimWorld, fed: &Rc<RefCell<FederateState>>, parts: &[String]) {
        match parts.first().map(String::as_str) {
            Some("JOIN") => {
                fed.borrow_mut().name = parts.get(1).cloned().unwrap_or_default();
            }
            Some("SUBSCRIBE") => {
                if let Some(class) = parts.get(1) {
                    fed.borrow_mut().subscriptions.push(class.clone());
                }
            }
            Some("REGULATING") => {
                fed.borrow_mut().regulating = true;
            }
            Some("UPDATE") => {
                // UPDATE class attribute value time
                let class = parts.get(1).cloned().unwrap_or_default();
                let attribute = parts.get(2).cloned().unwrap_or_default();
                let value = parts.get(3).cloned().unwrap_or_default();
                let time: f64 = parts.get(4).and_then(|s| s.parse().ok()).unwrap_or(0.0);
                let cost = self.inner.borrow().cost.recv_cost(value.len());
                let subscribers: Vec<VLink> = self
                    .inner
                    .borrow()
                    .federates
                    .iter()
                    .filter(|f| !Rc::ptr_eq(f, fed) && f.borrow().subscriptions.contains(&class))
                    .map(|f| f.borrow().vlink.clone())
                    .collect();
                let wire = frame(&["REFLECT", &class, &attribute, &value, &time.to_string()]);
                world.schedule_after(cost, move |world| {
                    for v in &subscribers {
                        v.post_write_bytes(world, wire.clone());
                    }
                });
            }
            Some("ADVANCE") => {
                // ADVANCE requested_time
                let t: f64 = parts.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.0);
                fed.borrow_mut().pending_request = Some(t);
                self.try_grant(world);
            }
            _ => {}
        }
    }

    /// Conservative time management: a requested time is granted once no
    /// regulating federate can still send an event earlier than it.
    fn try_grant(&self, world: &mut SimWorld) {
        let feds = self.inner.borrow().federates.clone();
        let min_floor = feds
            .iter()
            .filter(|f| f.borrow().regulating)
            .map(|f| {
                let f = f.borrow();
                f.pending_request
                    .unwrap_or(f.current_time)
                    .max(f.current_time)
            })
            .fold(f64::INFINITY, f64::min);
        for fed in &feds {
            let grant = {
                let f = fed.borrow();
                match f.pending_request {
                    Some(t) if t <= min_floor || !f.regulating => Some(t),
                    _ => None,
                }
            };
            if let Some(t) = grant {
                {
                    let mut f = fed.borrow_mut();
                    f.pending_request = None;
                    f.current_time = t;
                }
                let wire = frame(&["GRANT", &t.to_string()]);
                fed.borrow().vlink.post_write_bytes(world, wire);
            }
        }
    }
}

/// A federate: one simulation process joined to the federation.
#[derive(Clone)]
pub struct Federate {
    vlink: VLink,
    state: Rc<RefCell<FederateLocal>>,
    cost: Rc<MiddlewareCost>,
}

struct FederateLocal {
    time: f64,
    on_reflect: Option<ReflectCallback>,
    on_grant: Option<GrantCallback>,
    rx: MessageReassembler,
}

impl Federate {
    /// Joins the federation managed by the gateway at `rtig_node:service`.
    pub fn join(
        world: &mut SimWorld,
        runtime: &PadicoRuntime,
        rtig_node: NodeId,
        service: u16,
        name: &str,
    ) -> Federate {
        let vlink = runtime.vlink_connect(world, rtig_node, service);
        let fed = Federate {
            vlink: vlink.clone(),
            state: Rc::new(RefCell::new(FederateLocal {
                time: 0.0,
                on_reflect: None,
                on_grant: None,
                rx: MessageReassembler::new(LengthPrefix::U32Be),
            })),
            cost: Rc::new(MiddlewareCost::hla_certi()),
        };
        vlink.post_write_bytes(world, frame(&["JOIN", name]));
        let f2 = fed.clone();
        vlink.set_handler(move |world, event| {
            if event == VLinkEvent::Readable {
                f2.on_readable(world);
            }
        });
        fed
    }

    /// Current logical time.
    pub fn time(&self) -> f64 {
        self.state.borrow().time
    }

    /// Subscribes to an object class.
    pub fn subscribe(&self, world: &mut SimWorld, class: &str) {
        self.vlink
            .post_write_bytes(world, frame(&["SUBSCRIBE", class]));
    }

    /// Declares this federate time-regulating.
    pub fn enable_time_regulation(&self, world: &mut SimWorld) {
        self.vlink.post_write_bytes(world, frame(&["REGULATING"]));
    }

    /// Publishes an attribute update at logical time `time`.
    pub fn update_attribute(
        &self,
        world: &mut SimWorld,
        class: &str,
        attribute: &str,
        value: &str,
        time: f64,
    ) {
        let cost = self.cost.send_cost(value.len());
        let wire = frame(&["UPDATE", class, attribute, value, &time.to_string()]);
        let vlink = self.vlink.clone();
        world.schedule_after(cost, move |world| {
            vlink.post_write_bytes(world, wire);
        });
    }

    /// Requests a time advance to `t`.
    pub fn request_time_advance(&self, world: &mut SimWorld, t: f64) {
        self.vlink
            .post_write_bytes(world, frame(&["ADVANCE", &t.to_string()]));
    }

    /// Registers the callback for reflected attribute updates.
    pub fn on_reflect(&self, cb: impl FnMut(&mut SimWorld, String, String, f64) + 'static) {
        self.state.borrow_mut().on_reflect = Some(Box::new(cb));
    }

    /// Registers the callback for time-advance grants.
    pub fn on_grant(&self, cb: impl FnMut(&mut SimWorld, f64) + 'static) {
        self.state.borrow_mut().on_grant = Some(Box::new(cb));
    }

    fn on_readable(&self, world: &mut SimWorld) {
        let frames: Vec<Bytes> = {
            let mut st = self.state.borrow_mut();
            st.rx.read_from(world, &self.vlink);
            std::iter::from_fn(|| st.rx.next_message()).collect()
        };
        for body in frames {
            let text = String::from_utf8_lossy(&body);
            let parts: Vec<&str> = text.split('\x1f').collect();
            match parts.first().copied() {
                Some("REFLECT") => {
                    let class = parts.get(1).unwrap_or(&"").to_string();
                    let value = parts.get(3).unwrap_or(&"").to_string();
                    let time: f64 = parts.get(4).and_then(|s| s.parse().ok()).unwrap_or(0.0);
                    let cb = self.state.borrow_mut().on_reflect.take();
                    if let Some(mut cb) = cb {
                        cb(world, class, value, time);
                        let mut st = self.state.borrow_mut();
                        if st.on_reflect.is_none() {
                            st.on_reflect = Some(cb);
                        }
                    }
                }
                Some("GRANT") => {
                    let t: f64 = parts.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.0);
                    self.state.borrow_mut().time = t;
                    let cb = self.state.borrow_mut().on_grant.take();
                    if let Some(mut cb) = cb {
                        cb(world, t);
                        let mut st = self.state.borrow_mut();
                        if st.on_grant.is_none() {
                            st.on_grant = Some(cb);
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_core::{runtimes_for_cluster, SelectorPreferences};
    use simnet::topology;
    use std::cell::Cell;

    fn federation() -> (SimWorld, RtiGateway, Federate, Federate) {
        let mut world = SimWorld::new(111);
        let cluster =
            topology::build_san_cluster(&mut world, "n", 3, simnet::NetworkSpec::myrinet_2000());
        let rts = runtimes_for_cluster(
            &mut world,
            cluster.san.unwrap(),
            &cluster.nodes,
            SelectorPreferences::default(),
        );
        let gw = RtiGateway::new(&mut world, &rts[0], 1500);
        let f1 = Federate::join(&mut world, &rts[1], cluster.nodes[0], 1500, "flight-sim");
        let f2 = Federate::join(&mut world, &rts[2], cluster.nodes[0], 1500, "radar");
        world.run();
        (world, gw, f1, f2)
    }

    #[test]
    fn join_and_count() {
        let (_world, gw, _f1, _f2) = federation();
        assert_eq!(gw.federate_count(), 2);
    }

    #[test]
    fn updates_are_reflected_to_subscribers_only() {
        let (mut world, _gw, f1, f2) = federation();
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        f2.on_reflect(move |_w, class, value, time| {
            g.borrow_mut().push((class, value, time));
        });
        f2.subscribe(&mut world, "Aircraft");
        world.run();
        f1.update_attribute(&mut world, "Aircraft", "position", "48.1,-1.6", 10.0);
        f1.update_attribute(&mut world, "Ship", "position", "0,0", 11.0);
        world.run();
        let got = got.borrow();
        assert_eq!(got.len(), 1, "only the subscribed class is reflected");
        assert_eq!(got[0].0, "Aircraft");
        assert_eq!(got[0].1, "48.1,-1.6");
        assert_eq!(got[0].2, 10.0);
    }

    #[test]
    fn conservative_time_advance() {
        let (mut world, _gw, f1, f2) = federation();
        f1.enable_time_regulation(&mut world);
        f2.enable_time_regulation(&mut world);
        world.run();
        let granted1 = Rc::new(Cell::new(-1.0));
        let granted2 = Rc::new(Cell::new(-1.0));
        let (g1, g2) = (granted1.clone(), granted2.clone());
        f1.on_grant(move |_w, t| g1.set(t));
        f2.on_grant(move |_w, t| g2.set(t));
        // f1 asks for 5.0 but f2 (regulating) has not advanced yet: no grant.
        f1.request_time_advance(&mut world, 5.0);
        world.run();
        assert_eq!(
            granted1.get(),
            -1.0,
            "grant must wait for the other regulating federate"
        );
        // Once f2 requests a greater-or-equal time, both can be granted.
        f2.request_time_advance(&mut world, 5.0);
        world.run();
        assert_eq!(granted1.get(), 5.0);
        assert_eq!(granted2.get(), 5.0);
        assert_eq!(f1.time(), 5.0);
    }
}
