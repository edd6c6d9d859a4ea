//! The declaration every subcommand is parsed against: a [`Command`] row
//! names the flags it accepts once, and [`Args::parse`], the switch reader
//! and `edist-cli help` all read that one list.

use std::collections::BTreeMap;

/// One subcommand: its dispatch-table row.
pub struct Command {
    pub name: &'static str,
    pub summary: &'static str,
    /// Placeholder of the one positional argument it takes, if any.
    pub positional: Option<&'static str>,
    /// The flags it accepts, one `--name VALUE  help` line each, in
    /// blocks that subcommands may share.
    pub flags: &'static [&'static str],
    /// Runs it; `Ok` is the process exit code.
    pub run: fn(&Args) -> Result<u8, String>,
}

/// One declared flag: `usage` is `--name VALUE`, and a [`SWITCH`] value
/// makes it a switch.
pub struct Flag {
    pub usage: &'static str,
    pub name: &'static str,
    pub value: &'static str,
    pub help: &'static str,
}

/// The value shape of a switch: exactly `true` or `false`, checked while
/// parsing and read with [`Args::switch`].
pub const SWITCH: &str = "true|false";

/// The flags of one declaration block, in order.
pub fn flags(block: &'static str) -> impl Iterator<Item = Flag> {
    block.lines().map(|line| {
        let (usage, help) = line.split_once("  ").expect("a `--name VALUE  help` line");
        let (name, value) = usage.split_once(' ').expect("a `--name VALUE` usage");
        let name = name.strip_prefix("--").expect("a flag starts with --");
        let help = help.trim();
        Flag {
            usage,
            name,
            value,
            help,
        }
    })
}

impl Command {
    /// The declared flags, in `help` order.
    pub fn declared(&self) -> impl Iterator<Item = Flag> {
        self.flags.iter().flat_map(|block| flags(block))
    }
}

/// A command line parsed against its [`Command`].
pub struct Args {
    map: BTreeMap<&'static str, String>,
    positional: Option<String>,
}

impl Args {
    /// Refuses an undeclared or repeated flag, a flag without a value, a
    /// switch that is neither `true` nor `false` and an undeclared
    /// positional — before the subcommand reads a file or opens a socket.
    pub fn parse(command: &Command, argv: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut positional = None;
        let mut it = argv.iter();
        while let Some(token) = it.next() {
            let Some(name) = token.strip_prefix("--") else {
                if command.positional.is_none() || positional.is_some() {
                    return Err(format!("expected --flag, got '{token}'"));
                }
                positional = Some(token.clone());
                continue;
            };
            let flag = command
                .declared()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("{} does not take --{name}", command.name))?;
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            if flag.value == SWITCH && value != "true" && value != "false" {
                return Err(format!("--{name} takes true or false, got '{value}'"));
            }
            if map.insert(flag.name, value.clone()).is_some() {
                return Err(format!("--{name} is given more than once"));
            }
        }
        Ok(Args { map, positional })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: '{v}'")),
        }
    }

    /// [`num`](Self::num) for a count or a timeout that must be at least 1.
    pub fn positive(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.num(key, default)? {
            0 => Err(format!("--{key} must be at least 1")),
            n => Ok(n),
        }
    }

    /// A switch: off unless passed as `true`.
    pub fn switch(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }

    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// Refuses a given flag of `block` that belongs to other modes than
    /// `--{selector} {mode}`. A flag names its modes at the head of its
    /// help (`tcp: …`, `param, scaling, realworld: …`); one that names
    /// none belongs to every mode.
    pub fn refuse_other_modes(
        &self,
        block: &'static str,
        selector: &str,
        mode: &str,
    ) -> Result<(), String> {
        for flag in flags(block).filter(|f| self.get(f.name).is_some()) {
            if let Some((modes, _)) = flag.help.split_once(": ") {
                if !modes.split(", ").any(|m| m == mode) {
                    return Err(format!(
                        "--{} is for --{selector} {modes}; --{selector} {mode} does not take it",
                        flag.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Every flag given, as `(name, value)`, by name.
    pub fn given(&self) -> impl Iterator<Item = (&'static str, &str)> {
        self.map.iter().map(|(k, v)| (*k, v.as_str()))
    }
}
