//! Little-endian binary codec shared by the pack, WAL and spill formats
//! (all three checksum with `hyperbench_core::hash::store_fnv64`). Reads go
//! through [`Reader`], which turns every out-of-range access into a
//! named [`StoreError::Corrupt`] carrying the section name and offset —
//! corrupt bytes can never panic a slice index.

use hyperbench_core::properties::StructuralProperties;
use hyperbench_core::stats::SizeMetrics;

use crate::analysis::AnalysisRecord;

use super::StoreError;

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// u32 length prefix + UTF-8 bytes.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Presence flag + value.
pub(crate) fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
        None => put_u8(buf, 0),
    }
}

pub(crate) fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
        None => put_u8(buf, 0),
    }
}

/// A bounds-checked cursor over a byte slice. `what` names the region
/// being decoded (e.g. `"pack meta section"`) so corruption errors say
/// where the bytes ran out.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Reader<'a> {
        Reader { buf, pos: 0, what }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.overrun(n))?;
        if end > self.buf.len() {
            return Err(self.overrun(n));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn overrun(&self, n: usize) -> StoreError {
        StoreError::Corrupt(format!(
            "{}: needed {n} bytes at offset {} but only {} remain",
            self.what,
            self.pos,
            self.buf.len().saturating_sub(self.pos)
        ))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("{}: string is not UTF-8", self.what)))
    }

    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, StoreError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(StoreError::Corrupt(format!(
                "{}: bad option tag {other}",
                self.what
            ))),
        }
    }

    pub(crate) fn opt_str(&mut self) -> Result<Option<String>, StoreError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            other => Err(StoreError::Corrupt(format!(
                "{}: bad option tag {other}",
                self.what
            ))),
        }
    }

    pub(crate) fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Corrupt(format!(
                "{}: bad bool tag {other}",
                self.what
            ))),
        }
    }
}

/// Serializes an [`AnalysisRecord`]. Like the TSV index, per-`k` step
/// timings are not persisted — everything the repository and server
/// read back is.
pub(crate) fn put_analysis(buf: &mut Vec<u8>, rec: &AnalysisRecord) {
    put_u64(buf, rec.sizes.vertices as u64);
    put_u64(buf, rec.sizes.edges as u64);
    put_u64(buf, rec.sizes.arity as u64);
    put_u64(buf, rec.properties.degree as u64);
    put_u64(buf, rec.properties.bip as u64);
    put_u64(buf, rec.properties.bmip3 as u64);
    put_u64(buf, rec.properties.bmip4 as u64);
    put_opt_u64(buf, rec.properties.vc_dim.map(|v| v as u64));
    put_opt_u64(buf, rec.hw_upper.map(|v| v as u64));
    put_u64(buf, rec.hw_lower as u64);
    put_u8(buf, rec.hw_timed_out as u8);
}

/// Deserializes an [`AnalysisRecord`] written by [`put_analysis`].
pub(crate) fn read_analysis(r: &mut Reader<'_>) -> Result<AnalysisRecord, StoreError> {
    Ok(AnalysisRecord {
        sizes: SizeMetrics {
            vertices: r.u64()? as usize,
            edges: r.u64()? as usize,
            arity: r.u64()? as usize,
        },
        properties: StructuralProperties {
            degree: r.u64()? as usize,
            bip: r.u64()? as usize,
            bmip3: r.u64()? as usize,
            bmip4: r.u64()? as usize,
            vc_dim: r.opt_u64()?.map(|v| v as usize),
        },
        hw_upper: r.opt_u64()?.map(|v| v as usize),
        hw_lower: r.u64()? as usize,
        hw_steps: Vec::new(),
        hw_timed_out: r.bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "héllo");
        put_opt_u64(&mut buf, None);
        put_opt_u64(&mut buf, Some(42));
        put_opt_str(&mut buf, Some("x"));
        put_opt_str(&mut buf, None);
        let mut r = Reader::new(&buf, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.opt_str().unwrap(), Some("x".to_string()));
        assert_eq!(r.opt_str().unwrap(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn overruns_are_named_errors_not_panics() {
        let mut r = Reader::new(&[1, 2], "tiny section");
        let err = r.u64().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("tiny section"), "msg: {msg}");
        // A string whose claimed length exceeds the buffer.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1_000_000);
        let mut r = Reader::new(&buf, "bad string");
        assert!(r.str().is_err());
    }

    #[test]
    fn analysis_record_roundtrips() {
        let rec = AnalysisRecord {
            sizes: SizeMetrics {
                vertices: 10,
                edges: 5,
                arity: 3,
            },
            properties: StructuralProperties {
                degree: 4,
                bip: 2,
                bmip3: 2,
                bmip4: 1,
                vc_dim: None,
            },
            hw_upper: Some(2),
            hw_lower: 2,
            hw_steps: Vec::new(),
            hw_timed_out: false,
        };
        let mut buf = Vec::new();
        put_analysis(&mut buf, &rec);
        let mut r = Reader::new(&buf, "analysis");
        let back = read_analysis(&mut r).unwrap();
        assert_eq!(back.sizes, rec.sizes);
        assert_eq!(back.properties.vc_dim, None);
        assert_eq!(back.hw_upper, Some(2));
        assert!(!back.hw_timed_out);
    }
}
