//! # youtopia-travel
//!
//! The demonstration application of the Youtopia reproduction: the
//! travel web site of the paper's Section 3, built on the coordination
//! stack the way the demo's three-tier application is built on
//! Youtopia.
//!
//! * [`model`] — the travel schema (flights, hotels, users, friends,
//!   answer relations) and the demo dataset (the paper's Figure 1
//!   flights);
//! * [`social`] — the friend graph (the "Facebook" substitute);
//! * [`travel`] — the middle tier: search, direct booking, and every
//!   §3.1 coordination scenario, implemented by generating entangled
//!   SQL;
//! * [`notify`] — per-user mailboxes (the "Facebook message"
//!   substitute);
//! * [`admin`] — the §3.2 SQL command line and system-state inspector;
//! * [`workload`] — deterministic generators for the loaded-system
//!   experiments.
//!
//! ```
//! use youtopia_travel::{TravelService, FlightPrefs, BookingOutcome};
//!
//! let site = TravelService::bootstrap_demo().unwrap();
//! site.social().import_friends("jerry", &["kramer"]).unwrap();
//!
//! // Jerry asks to fly to Paris on the same flight as Kramer...
//! let waiting = site
//!     .coordinate_flight("jerry", "kramer", "Paris", FlightPrefs::default())
//!     .unwrap();
//! assert!(matches!(waiting, BookingOutcome::Waiting(_)));
//!
//! // ...and the matching request from Kramer confirms both.
//! let done = site
//!     .coordinate_flight("kramer", "jerry", "Paris", FlightPrefs::default())
//!     .unwrap();
//! assert!(done.is_confirmed());
//! assert_eq!(
//!     site.account_view("jerry").unwrap().flights,
//!     site.account_view("kramer").unwrap().flights,
//! );
//! ```

#![warn(missing_docs)]

pub mod admin;
pub mod error;
pub mod model;
pub mod notify;
pub mod social;
pub mod travel;
pub mod workload;

pub use admin::{render_result_set, AdminConsole};
pub use error::{TravelError, TravelResult};
pub use model::{flight_by_fno, hotel_by_hid, install_schema, seed_demo_data, Flight, Hotel};
pub use notify::{Message, Notifier};
pub use social::SocialGraph;
pub use travel::{AccountView, BookingOutcome, FlightPrefs, TravelService};
pub use workload::{
    drive_batched, run_crash_restart, CrashReport, CrashScenario, DriveReport, Request, WorkloadGen,
};
