//! Java-style sockets: buffered streams with the per-call cost of a
//! 2003-era JVM.
//!
//! Figure 3 and Table 1 include "Java socket" curves: peak bandwidth close
//! to the wire rate but a one-way latency of 40 µs, dominated by the
//! JNI/stream overhead of each call. This module reproduces that shape on
//! top of VLink.

use std::rc::Rc;

use bytes::Bytes;
use padico_core::{PadicoRuntime, VLink};
use simnet::{NodeId, SimWorld};

use crate::cost::MiddlewareCost;

/// A `java.net.Socket`-like handle.
#[derive(Clone)]
pub struct JavaSocket {
    vlink: VLink,
    cost: Rc<MiddlewareCost>,
}

/// A `java.net.ServerSocket`-like factory.
pub struct JavaServerSocket;

impl JavaServerSocket {
    /// Binds a server socket: accepted connections are delivered to
    /// `on_accept` wrapped as [`JavaSocket`]s.
    pub fn bind(
        world: &mut SimWorld,
        runtime: &PadicoRuntime,
        service: u16,
        mut on_accept: impl FnMut(&mut SimWorld, JavaSocket) + 'static,
    ) {
        let cost = Rc::new(MiddlewareCost::java_sockets());
        runtime.vlink_listen(world, service, move |world, vlink| {
            on_accept(
                world,
                JavaSocket {
                    vlink,
                    cost: cost.clone(),
                },
            );
        });
    }
}

impl JavaSocket {
    /// Connects to `remote:service` through the runtime (the JVM has been
    /// "ported" onto PadicoTM, so its sockets are VLinks underneath).
    pub fn connect(
        world: &mut SimWorld,
        runtime: &PadicoRuntime,
        remote: NodeId,
        service: u16,
    ) -> JavaSocket {
        JavaSocket {
            vlink: runtime.vlink_connect(world, remote, service),
            cost: Rc::new(MiddlewareCost::java_sockets()),
        }
    }

    /// `OutputStream.write`: queues the whole buffer.
    pub fn write(&self, world: &mut SimWorld, data: &[u8]) {
        let vlink = self.vlink.clone();
        let payload = Bytes::copy_from_slice(data);
        let cost = self.cost.send_cost(data.len());
        world.schedule_after(cost, move |world| {
            vlink.post_write_bytes(world, payload);
        });
    }

    /// `InputStream.available`.
    pub fn available(&self) -> usize {
        self.vlink.available()
    }

    /// `InputStream.read`: non-blocking read of up to `max` bytes (the
    /// receive-side JVM cost is charged per call by the caller's pattern of
    /// polling; bulk reads amortize it as on the real platform).
    pub fn read(&self, world: &mut SimWorld, max: usize) -> Vec<u8> {
        self.vlink.read_now(world, max)
    }

    /// Registers a data callback (`java.nio`-style readiness). The JVM
    /// receive cost is charged before the application sees each batch.
    pub fn on_data(&self, cb: impl FnMut(&mut SimWorld, Vec<u8>) + 'static) {
        use std::cell::RefCell;
        let vlink = self.vlink.clone();
        let recv_overhead = self.cost.recv_overhead;
        #[allow(clippy::type_complexity)]
        let cb: Rc<RefCell<Box<dyn FnMut(&mut SimWorld, Vec<u8>)>>> =
            Rc::new(RefCell::new(Box::new(cb)));
        self.vlink.set_handler(move |world, event| {
            if event == padico_core::VLinkEvent::Readable {
                let data = vlink.read_now(world, usize::MAX);
                if !data.is_empty() {
                    let cb = cb.clone();
                    world.schedule_after(recv_overhead, move |world| {
                        (cb.borrow_mut())(world, data);
                    });
                }
            }
        });
    }

    /// Closes the socket.
    pub fn close(&self, world: &mut SimWorld) {
        self.vlink.close(world);
    }

    /// The underlying VLink (for experiment instrumentation).
    pub fn vlink(&self) -> &VLink {
        &self.vlink
    }
}
