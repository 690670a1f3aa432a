//! The networked backend's type/task registry and the worker-side
//! broadcast store.
//!
//! A closure cannot cross a process boundary, so the networked backend
//! ships *names*: partition types, broadcast types and [`WireTask`] types
//! are registered under stable names in a [`NetRegistry`] that both the
//! driver and every worker process construct identically (the driver
//! ships the task's name and encoded parameters; the worker decodes the
//! task against its own copy and runs it). Broadcast values are shipped
//! once per worker as encoded frames and decoded lazily, with type-erased
//! caching, by the [`BroadcastStore`].

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dbtf_wire::{EncodedFrame, Wire, WireNamed, WireResult};

use crate::backend::{InProcess, WireTask};
use crate::executor::{erase_task, AnyPart, TaskFn};
use crate::lock;
use crate::storage::Broadcast;
use crate::task::TaskContext;

/// Decodes a registered task's parameter frame against the worker's
/// broadcast store into the task the executor runs; its results are the
/// encoded result frames.
pub(crate) type TaskDecoder = fn(&[u8], &BroadcastStore) -> WireResult<Arc<TaskFn>>;

fn decode_task<W: WireTask>(params: &[u8], broadcasts: &BroadcastStore) -> WireResult<Arc<TaskFn>> {
    let task = W::decode(params, broadcasts)?;
    Ok(erase_task(InProcess(
        move |_idx: usize, part: &mut W::Part, ctx: &mut TaskContext| {
            task.run(part, ctx).to_frame()
        },
    )))
}

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

/// Registry of partition codecs, broadcast encoders, and wire tasks the
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
    tasks: HashMap<&'static str, TaskDecoder>,
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

    /// Registers the wire task `W` under [`WireTask::NAME`], the name its
    /// `Run` frames carry.
    pub fn register_task<W: WireTask>(&mut self) -> &mut Self {
        self.tasks.insert(W::NAME, decode_task::<W>);
        self
    }

    /// Whether a task is registered under `name` — lets a caller check
    /// that a registry holds every task its driver emits.
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

    pub(crate) fn task_decoder(&self, name: &str) -> Option<TaskDecoder> {
        self.tasks.get(name).copied()
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
    /// An empty store.
    pub fn new() -> Self {
        BroadcastStore::default()
    }

    /// Installs the encoded frame of broadcast `id`.
    pub fn insert(&self, id: u64, frame: Vec<u8>) {
        lock(&self.inner).insert(
            id,
            BcastEntry {
                frame: Arc::new(frame),
                cached: None,
            },
        );
    }

    /// Reads broadcast `id` as the [`Broadcast`] handle the driver holds,
    /// decoding the value on first access.
    ///
    /// # Panics
    ///
    /// Panics if the id was never installed (driver/worker protocol bug)
    /// or the frame does not decode as `T` (mismatched registries).
    pub fn get<T: Wire + Send + Sync + 'static>(&self, id: u64) -> Broadcast<T> {
        let mut map = lock(&self.inner);
        let entry = map
            .get_mut(&id)
            .unwrap_or_else(|| panic!("broadcast id {id} is not installed on this worker"));
        let cached = entry
            .cached
            .as_ref()
            .and_then(|cached| Arc::clone(cached).downcast::<T>().ok());
        let value = cached.unwrap_or_else(|| {
            let typed = Arc::new(T::from_frame(&entry.frame).unwrap_or_else(|e| {
                panic!(
                    "broadcast {id} does not decode as {}: {}",
                    std::any::type_name::<T>(),
                    e.0
                )
            }));
            entry.cached = Some(Arc::clone(&typed) as Arc<dyn Any + Send + Sync>);
            typed
        });
        Broadcast {
            value,
            wire_id: Some(id),
        }
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
        let a: Broadcast<u64> = store.get(3);
        let b: Broadcast<u64> = store.get(3);
        assert_eq!((*a, *b), (41, 41));
        assert_eq!((a.wire_id(), b.wire_id()), (Some(3), Some(3)));
        // Cached: both reads share one allocation.
        assert!(std::ptr::eq(a.get(), b.get()));
    }

    #[test]
    #[should_panic(expected = "not installed on this worker")]
    fn missing_broadcast_panics() {
        let store = BroadcastStore::new();
        let _: Broadcast<u64> = store.get(9);
    }

    /// Adds its parameter to a `u64` partition.
    struct Add(u64);

    impl WireTask for Add {
        const NAME: &'static str = "test.add";
        type Part = u64;
        type Output = u64;

        fn encode(&self) -> EncodedFrame {
            self.0.to_frame()
        }

        fn decode(params: &[u8], _broadcasts: &BroadcastStore) -> WireResult<Self> {
            Ok(Add(u64::from_frame(params)?))
        }

        fn run(&self, v: &mut u64, ctx: &mut TaskContext) -> u64 {
            *v += self.0;
            ctx.charge(1);
            *v
        }
    }

    #[test]
    fn registered_task_decodes_and_runs() {
        let mut reg = NetRegistry::new();
        reg.register_task::<Add>();
        assert!(reg.has_task("test.add"));
        let decode = reg.task_decoder("test.add").unwrap();
        let store = BroadcastStore::new();
        let task = decode(&Add(5).encode().bytes, &store).unwrap();
        let mut part: AnyPart = Box::new(10u64);
        let mut ctx = TaskContext::new(0, 0, 0);
        let frame = task(0, part.as_mut(), &mut ctx)
            .downcast::<EncodedFrame>()
            .expect("a worker task returns its encoded result");
        assert_eq!(u64::from_frame(&frame.bytes).unwrap(), 15);
        assert_eq!(*part.downcast::<u64>().unwrap(), 15);
        assert!(reg.task_decoder("nope").is_none());
    }

    #[test]
    fn kernel_names_intern_to_stable_statics() {
        let a = intern_kernel_name("kernel.test_intern".to_string());
        let b = intern_kernel_name("kernel.test_intern".to_string());
        assert!(std::ptr::eq(a, b));
    }
}
