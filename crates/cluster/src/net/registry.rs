//! The networked backend's type/task registry and the worker-side
//! broadcast store.
//!
//! A closure cannot cross a process boundary, so the networked backend
//! ships *names*: partition types and task bodies are registered under
//! stable names in a [`NetRegistry`] that both the driver and every worker
//! process construct identically (the driver ships the name + encoded
//! parameters; the worker resolves them against its own copy). Broadcast
//! values are shipped once per worker as encoded frames and decoded
//! lazily, with type-erased caching, by the [`BroadcastStore`].

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dbtf_wire::{EncodedFrame, Wire, WireNamed, WireResult};

use crate::executor::AnyPart;
use crate::lock;
use crate::task::TaskContext;

/// A worker-side task body produced by a [`NetRegistry`] task factory:
/// runs on one partition and returns the encoded result frame.
pub type WorkerTaskFn =
    Box<dyn Fn(usize, &mut (dyn Any + Send), &mut TaskContext) -> EncodedFrame + Send + Sync>;

/// Builds a [`WorkerTaskFn`] from an encoded parameter frame and the
/// worker's broadcast store. Registered under the task's wire name.
pub type TaskFactory =
    Arc<dyn Fn(&[u8], &BroadcastStore) -> WireResult<WorkerTaskFn> + Send + Sync>;

/// Encode/decode functions for one registered partition type.
pub(crate) struct PartCodec {
    pub(crate) name: &'static str,
    pub(crate) encode: fn(&(dyn Any + Send)) -> EncodedFrame,
    pub(crate) decode: fn(&[u8]) -> WireResult<AnyPart>,
}

fn encode_part<P: WireNamed>(part: &(dyn Any + Send)) -> EncodedFrame {
    part.downcast_ref::<P>()
        .unwrap_or_else(|| {
            panic!(
                "partition registered as {} holds a different type (engine bug)",
                P::WIRE_NAME
            )
        })
        .to_frame()
}

fn decode_part<P: WireNamed>(bytes: &[u8]) -> WireResult<AnyPart> {
    Ok(Box::new(P::from_frame(bytes)?) as AnyPart)
}

fn encode_bcast<T: Wire + 'static>(value: &(dyn Any + Send + Sync)) -> EncodedFrame {
    value
        .downcast_ref::<T>()
        .expect("broadcast value type mismatch (engine bug)")
        .to_frame()
}

/// Registry of partition codecs, broadcast encoders, and task bodies the
/// networked backend resolves wire names against.
///
/// The driver and every worker must build the registry with the *same*
/// registrations (the binary's one `build_registry()` function, called on
/// both sides, is the idiom). Unregistered types and unknown task names
/// panic with instructions rather than failing silently.
#[derive(Default)]
pub struct NetRegistry {
    part_names: HashMap<TypeId, &'static str>,
    part_codecs: HashMap<&'static str, PartCodec>,
    bcast_encoders: HashMap<TypeId, fn(&(dyn Any + Send + Sync)) -> EncodedFrame>,
    tasks: HashMap<&'static str, TaskFactory>,
}

impl NetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        NetRegistry::default()
    }

    /// Registers `P` as a distributable partition type under
    /// `P::WIRE_NAME` (drives `Store` encoding on the driver and decoding
    /// on workers).
    pub fn register_part<P: WireNamed>(&mut self) -> &mut Self {
        self.part_names.insert(TypeId::of::<P>(), P::WIRE_NAME);
        self.part_codecs.insert(
            P::WIRE_NAME,
            PartCodec {
                name: P::WIRE_NAME,
                encode: encode_part::<P>,
                decode: decode_part::<P>,
            },
        );
        self
    }

    /// Registers `T` as a broadcastable value type.
    pub fn register_broadcast<T: WireNamed + Sync>(&mut self) -> &mut Self {
        self.bcast_encoders
            .insert(TypeId::of::<T>(), encode_bcast::<T>);
        self
    }

    /// Registers a task body under `name` (the name a
    /// [`crate::RemoteTask`] ships in its `Run` frames).
    pub fn register_task<F>(&mut self, name: &'static str, factory: F) -> &mut Self
    where
        F: Fn(&[u8], &BroadcastStore) -> WireResult<WorkerTaskFn> + Send + Sync + 'static,
    {
        self.tasks.insert(name, Arc::new(factory));
        self
    }

    /// Whether a task body is registered under `name` — lets binaries
    /// sanity-check driver/worker registry agreement at boot.
    pub fn has_task(&self, name: &str) -> bool {
        self.tasks.contains_key(name)
    }

    pub(crate) fn part_codec_of<P: 'static>(&self) -> &PartCodec {
        let name = self.part_names.get(&TypeId::of::<P>()).unwrap_or_else(|| {
            panic!(
                "partition type {} is not registered with the networked backend; \
                 register it with NetRegistry::register_part::<P>() (and implement \
                 dbtf_wire::WireNamed for it)",
                std::any::type_name::<P>()
            )
        });
        &self.part_codecs[name]
    }

    pub(crate) fn part_codec_named(&self, name: &str) -> Option<&PartCodec> {
        self.part_codecs.get(name)
    }

    pub(crate) fn bcast_encoder_of<T: 'static>(
        &self,
    ) -> fn(&(dyn Any + Send + Sync)) -> EncodedFrame {
        *self
            .bcast_encoders
            .get(&TypeId::of::<T>())
            .unwrap_or_else(|| {
                panic!(
                    "broadcast type {} is not registered with the networked backend; \
                     register it with NetRegistry::register_broadcast::<T>() (and \
                     implement dbtf_wire::WireNamed for it)",
                    std::any::type_name::<T>()
                )
            })
    }

    pub(crate) fn task_factory(&self, name: &str) -> Option<&TaskFactory> {
        self.tasks.get(name)
    }
}

/// Worker-side storage of broadcast values: encoded frames installed by
/// `BroadcastValue` requests, decoded lazily on first typed access and
/// cached type-erased after that.
///
/// Values persist for the worker's lifetime (mirroring the driver's
/// re-ship cache, which must be able to restore any of them after a
/// respawn); DBTF's broadcasts are small — O(I·R/8) bytes — so this is an
/// accepted memory/robustness trade-off, documented in `DESIGN.md` §1.2.6.
#[derive(Default)]
pub struct BroadcastStore {
    inner: Mutex<HashMap<u64, BcastEntry>>,
}

struct BcastEntry {
    frame: Arc<Vec<u8>>,
    cached: Option<Arc<dyn Any + Send + Sync>>,
}

impl BroadcastStore {
    pub(crate) fn new() -> Self {
        BroadcastStore::default()
    }

    pub(crate) fn insert(&self, id: u64, frame: Vec<u8>) {
        lock(&self.inner).insert(
            id,
            BcastEntry {
                frame: Arc::new(frame),
                cached: None,
            },
        );
    }

    /// Reads broadcast `id` as a `T`, decoding on first access.
    ///
    /// # Panics
    ///
    /// Panics if the id was never installed (driver/worker protocol bug)
    /// or the frame does not decode as `T` (mismatched registries).
    pub fn get<T: Wire + Send + Sync + 'static>(&self, id: u64) -> Arc<T> {
        let mut map = lock(&self.inner);
        let entry = map
            .get_mut(&id)
            .unwrap_or_else(|| panic!("broadcast id {id} is not installed on this worker"));
        if let Some(cached) = &entry.cached {
            if let Ok(typed) = Arc::clone(cached).downcast::<T>() {
                return typed;
            }
        }
        let frame = Arc::clone(&entry.frame);
        let typed = Arc::new(T::from_frame(&frame).unwrap_or_else(|e| {
            panic!(
                "broadcast {id} does not decode as {}: {}",
                std::any::type_name::<T>(),
                e.0
            )
        }));
        entry.cached = Some(Arc::clone(&typed) as Arc<dyn Any + Send + Sync>);
        typed
    }
}

/// Interns a worker-reported kernel name as `&'static str` (the span
/// layer's [`dbtf_telemetry::KernelEvent`] requires static names). Kernel
/// names form a small fixed set — every distinct name is leaked exactly
/// once, process-wide.
pub(crate) fn intern_kernel_name(name: String) -> &'static str {
    static NAMES: std::sync::OnceLock<Mutex<Vec<&'static str>>> = std::sync::OnceLock::new();
    let names = NAMES.get_or_init(|| Mutex::new(Vec::new()));
    let mut names = lock(names);
    if let Some(existing) = names.iter().find(|n| **n == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    names.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_codec_roundtrips_through_registry() {
        let mut reg = NetRegistry::new();
        reg.register_part::<u64>();
        let codec = reg.part_codec_of::<u64>();
        assert_eq!(codec.name, "u64");
        let boxed: AnyPart = Box::new(7u64);
        let frame = (codec.encode)(boxed.as_ref());
        assert_eq!(frame.data_len, 8);
        let back = (codec.decode)(&frame.bytes).unwrap();
        assert_eq!(*back.downcast::<u64>().unwrap(), 7);
        assert!(reg.part_codec_named("u64").is_some());
        assert!(reg.part_codec_named("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "not registered with the networked backend")]
    fn unregistered_part_panics_with_instructions() {
        NetRegistry::new().part_codec_of::<u64>();
    }

    #[test]
    fn broadcast_store_decodes_lazily_and_caches() {
        let store = BroadcastStore::new();
        store.insert(3, (41u64).to_frame().bytes);
        let a: Arc<u64> = store.get(3);
        let b: Arc<u64> = store.get(3);
        assert_eq!((*a, *b), (41, 41));
        // Cached: both reads share one allocation.
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "not installed on this worker")]
    fn missing_broadcast_panics() {
        let store = BroadcastStore::new();
        let _: Arc<u64> = store.get(9);
    }

    #[test]
    fn task_factory_resolves_and_runs() {
        let mut reg = NetRegistry::new();
        reg.register_task("test.add", |params, _bstore| {
            let delta = u64::from_frame(params)?;
            Ok(Box::new(
                move |_idx, part: &mut (dyn Any + Send), ctx: &mut TaskContext| {
                    let v = part.downcast_mut::<u64>().expect("u64 partition");
                    *v += delta;
                    ctx.charge(1);
                    (*v).to_frame()
                },
            ) as WorkerTaskFn)
        });
        let factory = reg.task_factory("test.add").unwrap();
        let store = BroadcastStore::new();
        let task = factory(&(5u64).to_frame().bytes, &store).unwrap();
        let mut part: AnyPart = Box::new(10u64);
        let mut ctx = TaskContext::new(0, 0, 0);
        let frame = task(0, part.as_mut(), &mut ctx);
        assert_eq!(u64::from_frame(&frame.bytes).unwrap(), 15);
        assert!(reg.task_factory("nope").is_none());
    }

    #[test]
    fn kernel_names_intern_to_stable_statics() {
        let a = intern_kernel_name("kernel.test_intern".to_string());
        let b = intern_kernel_name("kernel.test_intern".to_string());
        assert!(std::ptr::eq(a, b));
    }
}
