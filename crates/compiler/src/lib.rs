#![deny(missing_docs)]
//! The NetPU-M model compiler.
//!
//! PEM-style accelerators need a model compiler that converts a trained
//! network into an executable data stream — the paper cites the *NVDLA
//! Loadable* as the archetype. NetPU-M's equivalent is simpler because
//! §III.B.3 fixes the load order completely; this crate implements:
//!
//! * [`settings`] — the per-layer 64-bit configuration words.
//! * [`stream`] — the [`stream::compile`] encoder producing a
//!   [`stream::Loadable`] (model + one inference input), the
//!   [`StreamView`] every host-side reader decodes a stream into once
//!   (settings, parameters and weight rows read in place), and the
//!   [`stream::decode`] validator that expands a view into the full
//!   model.
//!
//! The stream format itself lives in [`stream`] once: the header word's
//! codec ([`Header`]), the §III.B.3 section order ([`section_at`]), the
//! section sizes ([`stream::param_words`],
//! [`stream::weight_words_mode`], [`stream::act_param_u32s`]) and the
//! section map they add up to ([`StreamLayout::of`]). The container
//! ([`file::layout_of`]), the `netpu-check` verifier and timing
//! certificate, and the accelerator model in `netpu-core`, which
//! consumes the stream word by word exactly as the hardware would, all
//! read the format through these functions instead of restating it.

//! With the test-only `inject` cargo feature, [`inject`] adds a seeded
//! miscompile harness: semantic mutations compiled into structurally
//! clean streams, used to demonstrate that the `netpu-check::symex`
//! translation validator catches what NPC001–NPC020 cannot.

pub mod file;
#[cfg(feature = "inject")]
pub mod inject;
pub mod settings;
pub mod stream;

pub use file::FileError;
pub use settings::{is_layer_sequence, LayerSetting, LayerType, SettingError};
pub use stream::{
    batch_stream, compile, compile_packed, decode, input_section, section_at, splice_input,
    Decoded, Header, Loadable, PackingMode, SectionKind, StreamError, StreamLayout, StreamView,
};
