//! The three workloads and their seeded request streams.
//!
//! The seed is the benchmark's argument; the program sees only the
//! generated requests. Each workload keeps its mix fixed and lets the seed
//! choose order, cache-busting values and comment text, so runs with
//! different seeds measure the same kind of work.

use joza_lab::{cms, corpus, VulnPlugin};
use joza_webapp::request::HttpRequest;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §VI read crawl under the paper's configuration.
    WpRead,
    /// Fresh comment posts under the paper's configuration.
    WpWrite,
    /// The 50 WP-SQLI-LAB plugins plus the 3 CMS cases, one exploit in
    /// ten requests, under the full deployment.
    LabAttack,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::WpRead, Workload::WpWrite, Workload::LabAttack];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WpRead => "wp-read",
            Workload::WpWrite => "wp-write",
            Workload::LabAttack => "lab-attack",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Posts the crawl visits (the seeded WordPress database has 40).
pub const CRAWL_POSTS: usize = 40;
/// Times each client crawls the site per pass.
pub const CRAWLS_PER_PASS: usize = 4;
/// Comments each client posts per pass; the DB is re-seeded between passes.
pub const COMMENTS_PER_PASS: usize = 120;
/// Posts the comments are spread over.
pub const COMMENT_POSTS: usize = 20;
/// Requests per vulnerable route per pass, of which exactly one carries
/// the route's shipped exploit.
pub const ATTACK_BLOCK: usize = 10;

/// One request of a stream with its expected verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// The request.
    pub request: HttpRequest,
    /// Whether it carries an exploit, which the engine must block.
    pub attack: bool,
}

/// SplitMix64: a small, fully specified generator, so a seed reproduces
/// its request streams on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`: distinct streams never share
    /// their output.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A lowercase alphanumeric token of `len` characters.
    pub fn token(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len).map(|_| ALPHABET[self.below(ALPHABET.len())] as char).collect()
    }
}

/// The request streams of one run: `stream(client, pass)` is what a
/// client serves in one pass.
#[derive(Debug, Clone)]
pub struct Plan {
    workload: Workload,
    seed: u64,
    /// Fixed per-client streams (wp-read, lab-attack): the same site is
    /// served pass after pass, as a live site re-serves its pages.
    fixed: Vec<Vec<Planned>>,
}

impl Plan {
    /// The plan for `clients` clients of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, clients: usize) -> Plan {
        let fixed = match workload {
            Workload::WpRead => {
                (0..clients).map(|c| crawl(&mut Rng::new(seed, c as u64))).collect()
            }
            Workload::WpWrite => Vec::new(),
            Workload::LabAttack => {
                let plugins = corpus::corpus();
                let cases = cms::cms_cases();
                let routes: Vec<&VulnPlugin> = plugins.iter().chain(&cases).collect();
                (0..clients).map(|c| attack_mix(&routes, &mut Rng::new(seed, c as u64))).collect()
            }
        };
        Plan { workload, seed, fixed }
    }

    /// What `client` serves in pass `pass`. wp-write posts comments no
    /// earlier pass or other client has posted.
    pub fn stream(&self, client: usize, pass: u64) -> Vec<Planned> {
        match self.workload {
            Workload::WpWrite => {
                let stream = (1 + client as u64) << 40 | pass;
                comments(client, pass, &mut Rng::new(self.seed, stream))
            }
            _ => self.fixed[client].clone(),
        }
    }

    /// Whether every pass serves the same stream (so reference responses
    /// computed once serve every pass).
    pub fn is_fixed(&self) -> bool {
        !self.fixed.is_empty()
    }
}

/// The §VI crawl: the front page and every post, each with a seeded
/// cache-busting parameter that changes the URL but not the page, in
/// seeded order.
fn crawl(rng: &mut Rng) -> Vec<Planned> {
    let mut out = Vec::new();
    for _ in 0..CRAWLS_PER_PASS {
        out.push(HttpRequest::get("index").query_param("utm", &rng.token(8)));
        for post in 1..=CRAWL_POSTS {
            out.push(
                HttpRequest::get("single-post")
                    .param("p", &post.to_string())
                    .query_param("utm", &rng.token(8)),
            );
        }
    }
    rng.shuffle(&mut out);
    out.into_iter().map(|request| Planned { request, attack: false }).collect()
}

const WORDS: [&str; 16] = [
    "great",
    "post",
    "really",
    "liked",
    "the",
    "part",
    "about",
    "joza",
    "thanks",
    "taint",
    "inference",
    "fragments",
    "queries",
    "daemon",
    "caching",
    "wordpress",
];

/// A pass of comment posts. The `[c.. p.. #..]` prefix makes every body
/// unique across passes and clients; the seed picks post, author and words.
fn comments(client: usize, pass: u64, rng: &mut Rng) -> Vec<Planned> {
    (0..COMMENTS_PER_PASS)
        .map(|i| {
            let mut text = format!("[c{client} p{pass} #{i}]");
            for _ in 0..8 + rng.below(17) {
                text.push(' ');
                text.push_str(WORDS[rng.below(WORDS.len())]);
            }
            let request = HttpRequest::post("post-comment")
                .param("comment_post_ID", &(1 + rng.below(COMMENT_POSTS)).to_string())
                .param("author", &format!("visitor{}", rng.below(1000)))
                .param("comment", &text);
            Planned { request, attack: false }
        })
        .collect()
}

/// Each vulnerable route contributes a block of [`ATTACK_BLOCK`] requests:
/// benign ones plus its shipped exploit at a seeded place; the whole
/// stream is then shuffled.
fn attack_mix(routes: &[&VulnPlugin], rng: &mut Rng) -> Vec<Planned> {
    let mut out = Vec::with_capacity(routes.len() * ATTACK_BLOCK);
    for plugin in routes {
        let exploit_at = rng.below(ATTACK_BLOCK);
        for i in 0..ATTACK_BLOCK {
            let attack = i == exploit_at;
            let value =
                if attack { plugin.exploit.primary_payload() } else { &plugin.benign_value };
            out.push(Planned { request: joza_lab::verify::request_for(plugin, value), attack });
        }
    }
    rng.shuffle(&mut out);
    out
}
