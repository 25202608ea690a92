//! Binary (de)serialisation of crawl traces.
//!
//! A real measurement study crawls once and re-analyses many times, so the
//! trace must round-trip through disk. The format is a simple
//! little-endian, fixed-width layout with a magic header and version — no
//! external format crates needed, and gigabyte-scale traces stream through
//! without intermediate allocation.

use crate::records::{DayTrace, ProviderPoll, ServerMeta, ServerPoll, Trace, UserMeta, UserPoll};
use crate::snapshot::{SnapshotId, UpdateSequence};
use cdnc_geo::{GeoPoint, IspId};
use cdnc_simcore::{SimDuration, SimTime};
use std::io::{self, Read, Write};

/// File magic: "CDNC".
const MAGIC: [u8; 4] = *b"CDNC";
/// Format version.
const VERSION: u32 = 1;

/// Writes `trace` to `w` in the binary trace format.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    put_u32(&mut w, VERSION)?;
    // Servers.
    put_u32(&mut w, trace.servers.len() as u32)?;
    for s in &trace.servers {
        put_u32(&mut w, s.id)?;
        put_point(&mut w, &s.location)?;
        put_u16(&mut w, s.isp.0)?;
        put_f64(&mut w, s.distance_to_provider_km)?;
        put_i64(&mut w, s.true_skew_us)?;
        put_i64(&mut w, s.measured_skew_us)?;
    }
    // Users.
    put_u32(&mut w, trace.users.len() as u32)?;
    for u in &trace.users {
        put_u32(&mut w, u.id)?;
        put_point(&mut w, &u.location)?;
    }
    put_u16(&mut w, trace.provider_isp.0)?;
    put_point(&mut w, &trace.provider_location)?;
    put_u64(&mut w, trace.poll_interval.as_micros())?;
    put_u64(&mut w, trace.session.as_micros())?;
    // Days.
    put_u32(&mut w, trace.days.len() as u32)?;
    for day in &trace.days {
        put_u16(&mut w, day.day)?;
        put_u32(&mut w, day.updates.len() as u32)?;
        for &t in day.updates.times() {
            put_u64(&mut w, t.as_micros())?;
        }
        put_u32(&mut w, day.server_polls.len() as u32)?;
        for p in &day.server_polls {
            put_u32(&mut w, p.server)?;
            put_u64(&mut w, p.time.as_micros())?;
            put_i64(&mut w, p.reported_gmt_us)?;
            put_u32(&mut w, p.snapshot.0)?;
            put_u64(&mut w, p.response_time.as_micros())?;
        }
        put_u32(&mut w, day.provider_polls.len() as u32)?;
        for p in &day.provider_polls {
            put_u32(&mut w, p.replica)?;
            put_u64(&mut w, p.time.as_micros())?;
            put_u32(&mut w, p.snapshot.0)?;
            put_u64(&mut w, p.response_time.as_micros())?;
        }
        put_u32(&mut w, day.user_polls.len() as u32)?;
        for p in &day.user_polls {
            put_u32(&mut w, p.user)?;
            put_u64(&mut w, p.time.as_micros())?;
            put_u32(&mut w, p.server)?;
            put_u32(&mut w, p.snapshot.0)?;
        }
    }
    Ok(())
}

/// Reads a trace previously written by [`write_trace`].
///
/// Every id the analyses index by is range-checked: server and user ids
/// must be dense (each equal to its position in its table), every poll's
/// server and user must exist, and every poll's snapshot must exist on its
/// day.
///
/// # Errors
///
/// Returns `InvalidData` when the magic, version, or any embedded value is
/// malformed or out of range, and any underlying I/O error.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<Trace> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad("not a CDNC trace file"));
    }
    let version = get_u32(&mut r)?;
    if version != VERSION {
        return Err(bad(format!("unsupported trace version {version}")));
    }
    let n_servers = get_u32(&mut r)? as usize;
    let mut servers = Vec::with_capacity(n_servers.min(1 << 20));
    for position in 0..n_servers {
        servers.push(ServerMeta {
            id: dense_id("server", get_u32(&mut r)?, position)?,
            location: get_point(&mut r)?,
            isp: IspId(get_u16(&mut r)?),
            distance_to_provider_km: get_f64(&mut r)?,
            true_skew_us: get_i64(&mut r)?,
            measured_skew_us: get_i64(&mut r)?,
        });
    }
    let n_users = get_u32(&mut r)? as usize;
    let mut users = Vec::with_capacity(n_users.min(1 << 20));
    for position in 0..n_users {
        let id = dense_id("user", get_u32(&mut r)?, position)?;
        users.push(UserMeta { id, location: get_point(&mut r)? });
    }
    let provider_isp = IspId(get_u16(&mut r)?);
    let provider_location = get_point(&mut r)?;
    let poll_interval = SimDuration::from_micros(get_u64(&mut r)?);
    let session = SimDuration::from_micros(get_u64(&mut r)?);
    let n_days = get_u32(&mut r)? as usize;
    let mut days = Vec::with_capacity(n_days.min(1 << 10));
    for _ in 0..n_days {
        let day = get_u16(&mut r)?;
        let n_updates = get_u32(&mut r)? as usize;
        let mut times = Vec::with_capacity(n_updates.min(1 << 20));
        for _ in 0..n_updates {
            times.push(SimTime::from_micros(get_u64(&mut r)?));
        }
        let updates = UpdateSequence::from_times(times)
            .map_err(|e| bad(format!("corrupt update sequence: {e}")))?;
        let n_sp = get_u32(&mut r)? as usize;
        let mut server_polls = Vec::with_capacity(n_sp.min(1 << 24));
        for _ in 0..n_sp {
            server_polls.push(ServerPoll {
                server: id_below("server", get_u32(&mut r)?, servers.len())?,
                time: SimTime::from_micros(get_u64(&mut r)?),
                reported_gmt_us: get_i64(&mut r)?,
                snapshot: SnapshotId(id_below("snapshot", get_u32(&mut r)?, updates.len())?),
                response_time: SimDuration::from_micros(get_u64(&mut r)?),
            });
        }
        let n_pp = get_u32(&mut r)? as usize;
        let mut provider_polls = Vec::with_capacity(n_pp.min(1 << 24));
        for _ in 0..n_pp {
            provider_polls.push(ProviderPoll {
                replica: get_u32(&mut r)?,
                time: SimTime::from_micros(get_u64(&mut r)?),
                snapshot: SnapshotId(id_below("snapshot", get_u32(&mut r)?, updates.len())?),
                response_time: SimDuration::from_micros(get_u64(&mut r)?),
            });
        }
        let n_up = get_u32(&mut r)? as usize;
        let mut user_polls = Vec::with_capacity(n_up.min(1 << 24));
        for _ in 0..n_up {
            user_polls.push(UserPoll {
                user: id_below("user", get_u32(&mut r)?, users.len())?,
                time: SimTime::from_micros(get_u64(&mut r)?),
                server: id_below("server", get_u32(&mut r)?, servers.len())?,
                snapshot: SnapshotId(id_below("snapshot", get_u32(&mut r)?, updates.len())?),
            });
        }
        days.push(DayTrace { day, updates, server_polls, provider_polls, user_polls });
    }
    Ok(Trace { servers, users, provider_isp, provider_location, poll_interval, session, days })
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `id` when it equals its table `position`, `InvalidData` otherwise.
fn dense_id(what: &str, id: u32, position: usize) -> io::Result<u32> {
    if id as usize == position {
        Ok(id)
    } else {
        Err(bad(format!("{what} id {id} at table position {position}: ids must be dense")))
    }
}

/// `id` when it indexes a table of `len` entries, `InvalidData` otherwise.
fn id_below(what: &str, id: u32, len: usize) -> io::Result<u32> {
    if (id as usize) < len {
        Ok(id)
    } else {
        Err(bad(format!("{what} id {id} out of range: only {len} exist")))
    }
}

fn put_u16<W: Write>(w: &mut W, v: u16) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_i64<W: Write>(w: &mut W, v: i64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn put_point<W: Write>(w: &mut W, p: &GeoPoint) -> io::Result<()> {
    put_f64(w, p.lat_deg())?;
    put_f64(w, p.lon_deg())
}

fn get_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}
fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn get_i64<R: Read>(r: &mut R) -> io::Result<i64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
}
fn get_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}
fn get_point<R: Read>(r: &mut R) -> io::Result<GeoPoint> {
    let lat = get_f64(r)?;
    let lon = get_f64(r)?;
    GeoPoint::new(lat, lon).map_err(|e| bad(format!("corrupt coordinates: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::{crawl, CrawlConfig};

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = crawl(&CrawlConfig { servers: 15, users: 8, days: 2, ..CrawlConfig::tiny() });
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn truncated_file_rejected() {
        let trace = crawl(&CrawlConfig { servers: 5, users: 3, days: 1, ..CrawlConfig::tiny() });
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn corrupt_coordinates_rejected() {
        let trace = crawl(&CrawlConfig { servers: 2, users: 2, days: 1, ..CrawlConfig::tiny() });
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        // The first server's latitude starts right after magic+version+count.
        let lat_offset = 4 + 4 + 4 + 4;
        buf[lat_offset..lat_offset + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn out_of_range_ids_rejected() {
        let clean = crawl(&CrawlConfig { servers: 6, users: 4, days: 1, ..CrawlConfig::tiny() });
        fn snaps(t: &Trace) -> SnapshotId {
            SnapshotId(t.days[0].updates.len() as u32)
        }
        type Corruption = (&'static str, fn(&mut Trace));
        let corruptions: [Corruption; 8] = [
            ("server meta id", |t| t.servers[1].id = 0),
            ("user meta id", |t| t.users[0].id = 1),
            ("server poll server", |t| t.days[0].server_polls[0].server = t.servers.len() as u32),
            ("user poll server", |t| t.days[0].user_polls[0].server = t.servers.len() as u32),
            ("user poll user", |t| t.days[0].user_polls[0].user = t.users.len() as u32),
            ("server poll snapshot", |t| t.days[0].server_polls[0].snapshot = snaps(t)),
            ("provider poll snapshot", |t| t.days[0].provider_polls[0].snapshot = snaps(t)),
            ("user poll snapshot", |t| t.days[0].user_polls[0].snapshot = snaps(t)),
        ];
        for (what, corrupt) in corruptions {
            let mut trace = clean.clone();
            corrupt(&mut trace);
            let mut buf = Vec::new();
            write_trace(&trace, &mut buf).unwrap();
            let err = read_trace(buf.as_slice()).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn size_is_compact() {
        let trace = crawl(&CrawlConfig { servers: 10, users: 5, days: 1, ..CrawlConfig::tiny() });
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        // ~32 bytes per server poll dominates; sanity-check the ballpark.
        let per_poll = buf.len() as f64 / trace.total_server_polls() as f64;
        assert!(per_poll < 80.0, "bytes per poll {per_poll}");
    }
}
