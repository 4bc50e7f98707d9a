//! The scenario file codec: one walker that runs each block's key table in three
//! modes, so parse, dump and the list of keys cannot drift apart.
//!
//! A key table hands every field of a block to [`Codec::req`] (required),
//! [`Codec::opt`] (defaulted) or [`Codec::elide`] (defaulted, and not written when
//! equal to the default) once, in dump order.

use crate::toml::{Document, Table, Value};
use std::fmt::Display;
use std::mem::discriminant;

/// What a walk does with each key: fill values from a parsed file (rejecting
/// whatever no key table declares), build the canonical document (noting integers
/// a TOML file cannot hold), or walk every block and variant to list the keys.
#[derive(Clone, Copy, PartialEq, Default)]
pub(crate) enum Mode {
    #[default]
    Read,
    Write,
    List,
}

/// A value one key holds.
pub(crate) trait Field: Clone + PartialEq {
    /// What the key must hold, for error messages.
    fn what() -> String;
    /// `None` when the value has the wrong type or range.
    fn from_value(v: &Value) -> Option<Self>;
    /// `None` writes nothing (an unset optional).
    fn to_value(&self) -> Option<Value>;
    /// Whether every integer in it fits a TOML integer (i64).
    fn fits(&self) -> bool {
        true
    }
}

macro_rules! field {
    ($t:ty, $what:expr, |$v:ident| $from:expr, |$x:ident| $to:expr $(, $fits:expr)?) => {
        impl $crate::codec::Field for $t {
            fn what() -> String {
                $what.into()
            }
            fn from_value($v: &$crate::toml::Value) -> Option<Self> {
                $from
            }
            fn to_value(&self) -> Option<$crate::toml::Value> {
                let $x = self;
                Some($to)
            }
            $(fn fits(&self) -> bool {
                $fits(*self)
            })?
        }
    };
}

/// A [`Field`] for an enum a file spells as one of a fixed set of strings.
macro_rules! named {
    ($t:ty: $($variant:expr => $name:expr),+) => {
        $crate::codec::field!(
            $t,
            format!("one of {}", [$($name),+].join(" | ")),
            |v| [$(($variant, $name)),+]
                .into_iter()
                .find(|(_, n)| v.as_str() == Some(*n))
                .map(|(x, _)| x),
            |x| {
                let (_, name) = [$(($variant, $name)),+].into_iter().find(|(v, _)| v == x)?;
                $crate::toml::Value::Str(name.into())
            }
        );
    };
}

pub(crate) use {field, named};

macro_rules! int_field {
    ($($t:ty),*) => {$(
        field!($t, "a non-negative integer", |v| v.as_int()?.try_into().ok(),
            |x| Value::Int(*x as i64), |x| i64::try_from(x).is_ok());
    )*};
}

int_field!(usize, u64, u32);
field!(f64, "a number", |v| v.as_float(), |x| Value::Float(*x));
field!(bool, "a boolean", |v| v.as_bool(), |x| Value::Bool(*x));
field!(String, "a string", |v| v.as_str().map(String::from), |x| {
    Value::Str(x.clone())
});
// The shortest f32 representation: a raw f32→f64 cast would print 0.3 as
// 0.30000001192092896, while this parses back to the same f32.
field!(f32, "a number", |v| v.as_float().map(|f| f as f32), |x| {
    Value::Float(x.to_string().parse().unwrap_or(*x as f64))
});

impl<T: Field> Field for Option<T> {
    fn what() -> String {
        T::what()
    }
    fn from_value(v: &Value) -> Option<Self> {
        T::from_value(v).map(Some)
    }
    fn to_value(&self) -> Option<Value> {
        self.as_ref()?.to_value()
    }
    fn fits(&self) -> bool {
        self.as_ref().is_none_or(T::fits)
    }
}

impl<T: Field> Field for Vec<T> {
    fn what() -> String {
        format!("an array, each entry {}", T::what())
    }
    fn from_value(v: &Value) -> Option<Self> {
        v.as_array()?.iter().map(T::from_value).collect()
    }
    fn to_value(&self) -> Option<Value> {
        Some(Value::Array(self.iter().filter_map(T::to_value).collect()))
    }
    fn fits(&self) -> bool {
        self.iter().all(T::fits)
    }
}

/// An enum a file writes as `[[table]]` entries told apart by a `kind` key.
pub(crate) trait Tagged: Clone {
    /// Every variant with its `kind`; a table read from a file starts from it.
    fn variants() -> Vec<(&'static str, Self)>;
    /// The variant's key table, every key but `kind`.
    fn keys(&mut self, c: &mut Codec<'_>);
}

/// One walk over a scenario file.
#[derive(Default)]
pub(crate) struct Codec<'a> {
    mode: Mode,
    src: Option<&'a Document>,
    /// The document written.
    pub(crate) doc: Document,
    /// List: every `(block, key)` walked; a tagged table's block is
    /// `[[name]] kind`.
    pub(crate) keys: Vec<(String, &'static str)>,
    /// The block under walk: its header, the table read, the table written, the
    /// keys walked so far.
    header: String,
    table: Option<&'a Table>,
    out: Table,
    walked: Vec<&'static str>,
    /// Every `[section]` and `[[table]]` header the key tables declare.
    claimed: Vec<String>,
    err: Option<String>,
}

impl<'a> Codec<'a> {
    /// A walk in `mode`; reading needs the parsed file.
    pub(crate) fn new(mode: Mode, src: Option<&'a Document>) -> Self {
        Codec {
            mode,
            src,
            ..Codec::default()
        }
    }

    /// A key every file must give.
    pub(crate) fn req<T: Field>(&mut self, key: &'static str, slot: &mut T) {
        self.key(key, slot, None, false);
    }

    /// A key that reads as `default` when absent.
    pub(crate) fn opt<T: Field>(&mut self, key: &'static str, slot: &mut T, default: &T) {
        self.key(key, slot, Some(default), false);
    }

    /// A key that reads as `default` when absent and is not written when equal to it.
    pub(crate) fn elide<T: Field>(&mut self, key: &'static str, slot: &mut T, default: &T) {
        self.key(key, slot, Some(default), true);
    }

    fn key<T: Field>(&mut self, key: &'static str, slot: &mut T, default: Option<&T>, elide: bool) {
        self.walked.push(key);
        match (self.mode, self.table.and_then(|t| t.get(key)), default) {
            (Mode::Read, Some(v), _) => match T::from_value(v) {
                Some(x) => *slot = x,
                None => self.fail(format!("{key} must be {}", T::what())),
            },
            (Mode::Read, None, Some(d)) => *slot = d.clone(),
            (Mode::Read, None, None) => self.fail(format!("missing key {key:?}")),
            (Mode::Write, ..) => {
                if !slot.fits() {
                    self.fail(format!("{key} must fit a TOML integer (i64)"));
                }
                match slot.to_value() {
                    Some(v) if !(elide && default == Some(&*slot)) => self.out.set(key, v),
                    _ => {}
                }
            }
            (Mode::List, ..) => {}
        }
    }

    /// Record an error against the block under walk; the first error wins.
    pub(crate) fn fail(&mut self, msg: impl Display) {
        let header = &self.header;
        self.err.get_or_insert_with(|| format!("{header}: {msg}"));
    }

    /// Walk one block with `walk`, reject the keys it left in the table read, and
    /// hand back the table written.
    fn block(
        &mut self,
        header: String,
        table: Option<&'a Table>,
        walk: impl FnOnce(&mut Self),
    ) -> Table {
        (self.header, self.table) = (header, table);
        self.walked.clear();
        walk(self);
        let walked = &self.walked;
        let entries = self.table.map_or(&[][..], Table::entries);
        if let Some((key, _)) = entries.iter().find(|(k, _)| !walked.contains(&k.as_str())) {
            self.fail(format!("unknown key {key:?}"));
        }
        if self.mode == Mode::List {
            let header = &self.header;
            (self.keys).extend(self.walked.iter().map(|k| (header.clone(), *k)));
        }
        std::mem::take(&mut self.out)
    }

    /// Walk `[name]` over `value` with its key table, which falls back to `default`.
    /// The section is there if the file has it (read), if `emit` (write), or always
    /// (list); returns whether it was.
    pub(crate) fn section<T>(
        &mut self,
        name: &'static str,
        emit: bool,
        value: &mut T,
        default: &T,
        keys: impl FnOnce(&mut Self, &mut T, &T),
    ) -> bool {
        let table = self.src.and_then(|d| d.section(name));
        let present = match self.mode {
            Mode::Read => table.is_some(),
            Mode::Write => emit,
            Mode::List => true,
        };
        self.claimed.push(format!("[{name}]"));
        if present {
            let out = self.block(format!("[{name}]"), table, |c| keys(c, value, default));
            if self.mode == Mode::Write {
                self.doc.sections.push((name.into(), out));
            }
        }
        present
    }

    /// [`Codec::section`] for a block absent when `None`; a section read from a
    /// file starts from `default`.
    pub(crate) fn optional<T: Clone>(
        &mut self,
        name: &'static str,
        slot: &mut Option<T>,
        default: T,
        keys: impl FnOnce(&mut Self, &mut T, &T),
    ) {
        let mut value = slot.clone().unwrap_or_else(|| default.clone());
        if self.section(name, slot.is_some(), &mut value, &default, keys) {
            *slot = Some(value);
        }
    }

    /// Walk the `[[name]]` tables holding `items`, `kind` first.
    pub(crate) fn tables<T: Tagged>(&mut self, name: &'static str, items: &mut Vec<T>) {
        self.claimed.push(format!("[[{name}]]"));
        let variants = T::variants();
        let tables = self.src.map_or(Vec::new(), |d| d.tables_named(name));
        let entries: Vec<(Option<&'a Table>, Option<T>)> = match self.mode {
            Mode::Read => tables.into_iter().map(|t| (Some(t), None)).collect(),
            Mode::Write => items.drain(..).map(|x| (None, Some(x))).collect(),
            Mode::List => variants.iter().map(|v| (None, Some(v.1.clone()))).collect(),
        };
        for (i, (table, mut item)) in entries.into_iter().enumerate() {
            let tag = item.as_ref().map(discriminant);
            let found = variants.iter().find(|(_, v)| Some(discriminant(v)) == tag);
            let mut kind = found.map_or("", |(k, _)| *k).to_string();
            let id = if self.mode == Mode::List {
                kind.clone()
            } else {
                format!("#{i}")
            };
            let out = self.block(format!("[[{name}]] {id}"), table, |c| {
                c.req("kind", &mut kind);
                let blank = variants.iter().find(|(k, _)| *k == kind);
                item = item.take().or(blank.map(|(_, v)| v.clone()));
                match &mut item {
                    Some(x) => x.keys(c),
                    None => {
                        let kinds: Vec<_> = variants.iter().map(|(k, _)| *k).collect();
                        c.fail(format!(
                            "unknown kind {kind:?} (expected {})",
                            kinds.join(" | ")
                        ));
                    }
                }
            });
            if self.mode == Mode::Write {
                self.doc.table_arrays.push((name.into(), out));
            }
            if self.mode != Mode::List {
                items.extend(item);
            }
        }
    }

    /// The walk's first error. A read also rejects top-level keys and each section
    /// and table no key table declares.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        if let Some(doc) = self.src {
            self.block("top level".into(), Some(&doc.root), |_| {});
            let sections = doc.sections.iter().map(|s| format!("[{}]", s.0));
            let tables = doc.table_arrays.iter().map(|t| format!("[[{}]]", t.0));
            let claimed = &self.claimed;
            if let Some(header) = sections.chain(tables).find(|h| !claimed.contains(h)) {
                self.header = header;
                self.fail("no such section");
            }
        }
        self.err.map_or(Ok(()), Err)
    }
}
