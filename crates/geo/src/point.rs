//! Geographic coordinates and great-circle distance.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Mean Earth radius in kilometres (IUGG value).
pub const EARTH_RADIUS_KM: f64 = 6_371.0;

/// Error returned when constructing a [`GeoPoint`] from out-of-range
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidCoordinates;

impl fmt::Display for InvalidCoordinates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "latitude must be in [-90, 90] and longitude in [-180, 180]")
    }
}

impl std::error::Error for InvalidCoordinates {}

/// A point on the Earth's surface in decimal degrees.
///
/// # Examples
///
/// ```
/// use cdnc_geo::GeoPoint;
///
/// let p = GeoPoint::new(33.749, -84.388)?;
/// assert_eq!(p.distance_km(&p), 0.0);
/// # Ok::<(), cdnc_geo::point::InvalidCoordinates>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct GeoPoint {
    lat_deg: f64,
    lon_deg: f64,
}

impl GeoPoint {
    /// Creates a point from latitude and longitude in decimal degrees.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidCoordinates`] when either coordinate is non-finite or
    /// out of range (|lat| > 90, |lon| > 180).
    pub fn new(lat_deg: f64, lon_deg: f64) -> Result<Self, InvalidCoordinates> {
        if !lat_deg.is_finite()
            || !lon_deg.is_finite()
            || !(-90.0..=90.0).contains(&lat_deg)
            || !(-180.0..=180.0).contains(&lon_deg)
        {
            return Err(InvalidCoordinates);
        }
        Ok(GeoPoint { lat_deg, lon_deg })
    }

    /// Latitude in decimal degrees.
    pub fn lat_deg(&self) -> f64 {
        self.lat_deg
    }

    /// Longitude in decimal degrees.
    pub fn lon_deg(&self) -> f64 {
        self.lon_deg
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        self.distance_km_cos(self.cos_lat(), other, other.cos_lat())
    }

    /// The cosine of the latitude: the one factor of
    /// [`GeoPoint::distance_km`] that depends on a single point.
    pub fn cos_lat(&self) -> f64 {
        self.lat_deg.to_radians().cos()
    }

    /// [`GeoPoint::distance_km`] given both points' [`GeoPoint::cos_lat`],
    /// for callers that measure many distances between the same points. It
    /// applies the same operations to the same values, so it returns the
    /// same bits.
    pub fn distance_km_cos(&self, cos_lat: f64, other: &GeoPoint, other_cos_lat: f64) -> f64 {
        let dlat = (other.lat_deg - self.lat_deg).to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + cos_lat * other_cos_lat * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// Returns a copy displaced by roughly `dlat_km` north and `dlon_km`
    /// east, clamped to valid coordinate ranges. Used to jitter server
    /// positions inside a metro area.
    pub fn displaced_km(&self, dlat_km: f64, dlon_km: f64) -> GeoPoint {
        let km_per_deg_lat = 2.0 * std::f64::consts::PI * EARTH_RADIUS_KM / 360.0;
        let lat = (self.lat_deg + dlat_km / km_per_deg_lat).clamp(-90.0, 90.0);
        let km_per_deg_lon = km_per_deg_lat * self.lat_deg.to_radians().cos().max(0.01);
        let mut lon = self.lon_deg + dlon_km / km_per_deg_lon;
        if lon > 180.0 {
            lon -= 360.0;
        } else if lon < -180.0 {
            lon += 360.0;
        }
        GeoPoint { lat_deg: lat, lon_deg: lon }
    }

    /// A coarse location key: coordinates rounded to `decimals` places.
    ///
    /// Servers sharing a key are "geographically collocated" in the sense of
    /// paper §3.4.1 (same longitude and latitude after geolocation rounding).
    pub fn location_key(&self, decimals: u32) -> (i64, i64) {
        let scale = 10f64.powi(decimals as i32);
        ((self.lat_deg * scale).round() as i64, (self.lon_deg * scale).round() as i64)
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}°, {:.3}°)", self.lat_deg, self.lon_deg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn known_distances() {
        // Atlanta <-> Los Angeles ≈ 3,110 km.
        let atl = p(33.749, -84.388);
        let la = p(34.052, -118.244);
        let d = atl.distance_km(&la);
        assert!((3_050.0..3_170.0).contains(&d), "ATL-LA {d}");
        // New York <-> London ≈ 5,570 km.
        let ny = p(40.713, -74.006);
        let lon = p(51.507, -0.128);
        let d = ny.distance_km(&lon);
        assert!((5_520.0..5_620.0).contains(&d), "NY-LDN {d}");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = p(10.0, 20.0);
        let b = p(-35.0, 140.0);
        assert_eq!(a.distance_km(&a), 0.0);
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = p(0.0, 0.0);
        let b = p(0.0, 180.0);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((a.distance_km(&b) - half).abs() < 1.0);
    }

    #[test]
    fn invalid_coordinates_rejected() {
        assert!(GeoPoint::new(91.0, 0.0).is_err());
        assert!(GeoPoint::new(-91.0, 0.0).is_err());
        assert!(GeoPoint::new(0.0, 181.0).is_err());
        assert!(GeoPoint::new(0.0, -181.0).is_err());
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
        assert!(GeoPoint::new(0.0, f64::INFINITY).is_err());
        assert!(GeoPoint::new(90.0, 180.0).is_ok());
    }

    #[test]
    fn displacement_moves_roughly_right_distance() {
        let a = p(33.0, -84.0);
        let b = a.displaced_km(10.0, 0.0);
        assert!((a.distance_km(&b) - 10.0).abs() < 0.2);
        let c = a.displaced_km(0.0, 10.0);
        assert!((a.distance_km(&c) - 10.0).abs() < 0.2);
    }

    #[test]
    fn displacement_wraps_longitude() {
        let a = p(0.0, 179.9);
        let b = a.displaced_km(0.0, 50.0);
        assert!(b.lon_deg() < 0.0, "should wrap to the western hemisphere");
    }

    #[test]
    fn location_key_groups_nearby_points() {
        let a = p(33.7491, -84.3881);
        let b = p(33.7493, -84.3879);
        assert_eq!(a.location_key(2), b.location_key(2));
        assert_ne!(a.location_key(4), b.location_key(4));
    }

    /// The haversine as `distance_km` wrote it before the per-point
    /// `cos(lat)` factor was split out, kept as its oracle.
    fn haversine_oracle(a: &GeoPoint, b: &GeoPoint) -> f64 {
        let lat1 = a.lat_deg.to_radians();
        let lat2 = b.lat_deg.to_radians();
        let dlat = (b.lat_deg - a.lat_deg).to_radians();
        let dlon = (b.lon_deg - a.lon_deg).to_radians();
        let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
    }

    proptest! {
        /// Both distance paths return the oracle's bits.
        #[test]
        fn prop_distance_matches_the_haversine_oracle(
            lat1 in -90.0f64..=90.0, lon1 in -180.0f64..=180.0,
            lat2 in -90.0f64..=90.0, lon2 in -180.0f64..=180.0,
        ) {
            let (a, b) = (p(lat1, lon1), p(lat2, lon2));
            let want = haversine_oracle(&a, &b).to_bits();
            prop_assert_eq!(a.distance_km(&b).to_bits(), want);
            prop_assert_eq!(a.distance_km_cos(a.cos_lat(), &b, b.cos_lat()).to_bits(), want);
        }

        /// Triangle inequality holds for the haversine metric.
        #[test]
        fn prop_triangle_inequality(
            lat1 in -89.0f64..89.0, lon1 in -179.0f64..179.0,
            lat2 in -89.0f64..89.0, lon2 in -179.0f64..179.0,
            lat3 in -89.0f64..89.0, lon3 in -179.0f64..179.0,
        ) {
            let a = p(lat1, lon1);
            let b = p(lat2, lon2);
            let c = p(lat3, lon3);
            prop_assert!(a.distance_km(&c) <= a.distance_km(&b) + b.distance_km(&c) + 1e-6);
        }

        /// Distance is non-negative and bounded by half the circumference.
        #[test]
        fn prop_distance_bounds(
            lat1 in -90.0f64..=90.0, lon1 in -180.0f64..=180.0,
            lat2 in -90.0f64..=90.0, lon2 in -180.0f64..=180.0,
        ) {
            let d = p(lat1, lon1).distance_km(&p(lat2, lon2));
            prop_assert!(d >= 0.0);
            prop_assert!(d <= std::f64::consts::PI * EARTH_RADIUS_KM + 1e-6);
        }
    }
}
