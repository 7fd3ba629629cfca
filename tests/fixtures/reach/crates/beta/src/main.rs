//! The shipped code that uses `alpha`.

use alpha::{Counter, Mode, Tag, LIMIT};

fn main() {
    let mut counter = Counter::default();
    let tag = Tag {
        name: "beta",
        note: "built, never read",
    };
    while counter.spin() < LIMIT {}
    let len = tag.name().len() + Mode::Fast.describe().len();
    println!("{} {len}", counter.total);
}
