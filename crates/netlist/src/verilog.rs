//! Reader/writer for a structural Verilog-2001 subset.
//!
//! The paper's extraction tool consumes netlists produced by commercial
//! synthesis (Cadence/Synopsys). This module is the open substitute: it
//! accepts a post-synthesis *structural* netlist in a small, well-defined
//! Verilog subset and emits the same subset, so designs can be exchanged
//! with external flows.
//!
//! # Supported subset
//!
//! ```verilog
//! module name (a, b, y);        // port list (names only)
//!   input a;                    // scalar ports
//!   input [3:0] b;              // bused ports expand to b[0]..b[3]
//!   output y;
//!   wire w;  wire [7:0] d;      // internal nets
//!   and  g1 (w, a, b[0]);       // primitives: output first
//!   mux2 g2 (y, w, a, b[1]);    // mux2(out, sel, in0, in1)
//!   dff  r1 (q, w);             // flip-flop: dff(q, d)
//!   dffe r2 (q2, w, en);        // + clock enable
//!   dffr r3 (q3, w, rst);       // + sync reset (to 0)
//!   dffre r4 (q4, w, en, rst);  // + enable and reset
//! endmodule
//! ```
//!
//! `//` line and `/* */` block comments are skipped. Primary inputs whose
//! name starts with `clk`/`clock` are marked as critical clock nets, and
//! `rst`/`reset` as critical reset nets, mirroring how a constraints file
//! would flag them.

use crate::gate::GateKind;
use crate::ids::NetId;
use crate::logic::Logic;
use crate::netlist::{CriticalNetKind, Driver, Netlist, NetlistBuilder, NetlistError};
use std::error::Error;
use std::fmt;

/// Error parsing the structural Verilog subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVerilogError {
    /// 1-based line where the error was detected.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verilog parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseVerilogError {}

impl From<NetlistError> for ParseVerilogError {
    fn from(e: NetlistError) -> Self {
        let message = match e {
            NetlistError::DuplicateName(n) => NetlistError::DuplicateName(shown(&n)),
            NetlistError::UndrivenNet(n) => NetlistError::UndrivenNet(shown(&n)),
            NetlistError::BadArity { gate, kind, inputs } => NetlistError::BadArity {
                gate: shown(&gate),
                kind,
                inputs,
            },
            other => other,
        }
        .to_string();
        ParseVerilogError { line: 0, message }
    }
}

/// At most this many characters of an offending token or name are quoted
/// in an error message, so a megabyte-long identifier draws a short error.
const QUOTED_CHARS: usize = 64;

/// `text` as an error message quotes it: its first [`QUOTED_CHARS`]
/// characters, with `…` marking a cut.
fn shown(text: &str) -> String {
    match text.char_indices().nth(QUOTED_CHARS) {
        Some((cut, _)) => format!("{}…", &text[..cut]),
        None => text.to_owned(),
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Token {
    text: String,
    line: usize,
}

fn tokenize(src: &str) -> Result<Vec<Token>, ParseVerilogError> {
    let mut tokens = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line = 1usize;
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                match chars.peek() {
                    Some('/') => {
                        for c in chars.by_ref() {
                            if c == '\n' {
                                line += 1;
                                break;
                            }
                        }
                    }
                    Some('*') => {
                        chars.next();
                        let mut prev = ' ';
                        let mut closed = false;
                        for c in chars.by_ref() {
                            if c == '\n' {
                                line += 1;
                            }
                            if prev == '*' && c == '/' {
                                closed = true;
                                break;
                            }
                            prev = c;
                        }
                        if !closed {
                            return Err(ParseVerilogError {
                                line,
                                message: "unterminated block comment".into(),
                            });
                        }
                    }
                    _ => {
                        return Err(ParseVerilogError {
                            line,
                            message: "stray `/`".into(),
                        })
                    }
                }
            }
            '(' | ')' | ',' | ';' | '[' | ']' | ':' => {
                tokens.push(Token {
                    text: c.to_string(),
                    line,
                });
                chars.next();
            }
            c if c.is_ascii_alphanumeric() || c == '_' || c == '\\' || c == '$' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token { text: s, line });
            }
            other => {
                return Err(ParseVerilogError {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn line(&self) -> usize {
        self.peek()
            .map(|t| t.line)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.line).unwrap_or(1))
    }

    fn err(&self, message: impl Into<String>) -> ParseVerilogError {
        ParseVerilogError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn next(&mut self) -> Result<Token, ParseVerilogError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, text: &str) -> Result<(), ParseVerilogError> {
        let t = self.next()?;
        if t.text != text {
            return Err(ParseVerilogError {
                line: t.line,
                message: format!("expected `{text}`, found `{}`", shown(&t.text)),
            });
        }
        Ok(())
    }

    fn ident(&mut self) -> Result<Token, ParseVerilogError> {
        let t = self.next()?;
        let ok = t
            .text
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false);
        if !ok {
            return Err(ParseVerilogError {
                line: t.line,
                message: format!("expected identifier, found `{}`", shown(&t.text)),
            });
        }
        Ok(t)
    }

    fn number(&mut self) -> Result<u32, ParseVerilogError> {
        let t = self.next()?;
        t.text.parse::<u32>().map_err(|_| ParseVerilogError {
            line: t.line,
            message: format!("expected number, found `{}`", shown(&t.text)),
        })
    }

    /// Parses a net reference: `name` or `name[bit]`.
    fn net_ref(&mut self) -> Result<(String, usize), ParseVerilogError> {
        let id = self.ident()?;
        let line = id.line;
        let mut name = id.text;
        if self.peek().map(|t| t.text.as_str()) == Some("[") {
            self.expect("[")?;
            let bit = self.number()?;
            self.expect("]")?;
            name = format!("{name}[{bit}]");
        }
        Ok((name, line))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeclKind {
    Input,
    Output,
    Wire,
}

/// Parses a single-module structural Verilog source into a [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseVerilogError`] on lexical/syntactic errors, undeclared
/// nets, unknown primitives or netlist validation failures (duplicate
/// names, undriven nets).
///
/// # Example
///
/// ```
/// let src = "
///     module inv(a, y);
///     input a; output y;
///     not g0(y, a);
///     endmodule";
/// let nl = socfmea_netlist::parse_verilog(src)?;
/// assert_eq!(nl.name(), "inv");
/// assert_eq!(nl.gate_count(), 1);
/// # Ok::<(), socfmea_netlist::ParseVerilogError>(())
/// ```
pub fn parse_verilog(src: &str) -> Result<Netlist, ParseVerilogError> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    p.expect("module")?;
    let module_name = p.ident()?.text;
    let mut builder = NetlistBuilder::new(module_name);
    // Port list: names only; directions come from the declarations.
    p.expect("(")?;
    if p.peek().map(|t| t.text.as_str()) != Some(")") {
        loop {
            let _ = p.ident()?;
            if p.peek().map(|t| t.text.as_str()) == Some(",") {
                p.expect(",")?;
            } else {
                break;
            }
        }
    }
    p.expect(")")?;
    p.expect(";")?;

    use std::collections::HashMap;
    // name -> (declared, net ids if already created)
    let mut declared: HashMap<String, DeclKind> = HashMap::new();
    let mut created: HashMap<String, NetId> = HashMap::new();
    // Outputs must be driven by an instance; remember them and their source
    // net so a final `output` call wires them up. In this subset an output
    // is simply a wire that an instance drives directly, so we instead track
    // outputs and mark them at the end.
    let mut output_names: Vec<String> = Vec::new();
    // wires/outputs are created lazily when first referenced, as
    // placeholder nets that an instance later drives. Since the builder
    // assigns drivers at gate creation, we create "forward" nets through a
    // little indirection: instances that *drive* a not-yet-created net
    // create it; references *before* the driver use a placeholder buffer-free
    // approach. To keep it simple we do two passes: collect declarations and
    // instances first, then create nets in dependency-free order.
    #[derive(Debug)]
    struct Instance {
        prim: String,
        name: String,
        args: Vec<String>,
        line: usize,
    }
    let mut instances: Vec<Instance> = Vec::new();

    loop {
        let t = p.next()?;
        match t.text.as_str() {
            "endmodule" => break,
            "input" | "output" | "wire" => {
                let kind = match t.text.as_str() {
                    "input" => DeclKind::Input,
                    "output" => DeclKind::Output,
                    _ => DeclKind::Wire,
                };
                // optional [msb:lsb]
                let mut range: Option<(u32, u32)> = None;
                if p.peek().map(|t| t.text.as_str()) == Some("[") {
                    p.expect("[")?;
                    let msb = p.number()?;
                    p.expect(":")?;
                    let lsb = p.number()?;
                    p.expect("]")?;
                    range = Some((msb, lsb));
                }
                loop {
                    let id = p.ident()?;
                    // A trailing `[N]` names a single expanded bit (the form
                    // the writer emits); a leading `[msb:lsb]` range was
                    // already consumed above.
                    let mut scalar_name = id.text.clone();
                    if range.is_none() && p.peek().map(|t| t.text.as_str()) == Some("[") {
                        p.expect("[")?;
                        let bit = p.number()?;
                        p.expect("]")?;
                        scalar_name = format!("{}[{bit}]", id.text);
                    }
                    let names: Vec<String> = match range {
                        None => vec![scalar_name],
                        Some((msb, lsb)) => {
                            let (lo, hi) = (msb.min(lsb), msb.max(lsb));
                            (lo..=hi).map(|b| format!("{}[{b}]", id.text)).collect()
                        }
                    };
                    for n in names {
                        if declared.insert(n.clone(), kind).is_some() {
                            return Err(ParseVerilogError {
                                line: id.line,
                                message: format!("net `{}` declared twice", shown(&n)),
                            });
                        }
                        if kind == DeclKind::Input {
                            let net = builder.input(n.clone());
                            let lower = n.to_ascii_lowercase();
                            if lower.starts_with("clk") || lower.starts_with("clock") {
                                builder.mark_critical(net, CriticalNetKind::Clock);
                            } else if lower.starts_with("rst") || lower.starts_with("reset") {
                                builder.mark_critical(net, CriticalNetKind::Reset);
                            }
                            created.insert(n, net);
                        } else if kind == DeclKind::Output {
                            output_names.push(n);
                        }
                    }
                    if p.peek().map(|t| t.text.as_str()) == Some(",") {
                        p.expect(",")?;
                    } else {
                        break;
                    }
                }
                p.expect(";")?;
            }
            prim => {
                let inst_name = p.ident()?.text;
                p.expect("(")?;
                let mut args = Vec::new();
                loop {
                    let (name, _line) = p.net_ref()?;
                    args.push(name);
                    if p.peek().map(|t| t.text.as_str()) == Some(",") {
                        p.expect(",")?;
                    } else {
                        break;
                    }
                }
                p.expect(")")?;
                p.expect(";")?;
                instances.push(Instance {
                    prim: prim.to_owned(),
                    name: inst_name,
                    args,
                    line: t.line,
                });
            }
        }
    }

    // Resolve instances. Because the builder creates a gate's output net at
    // gate-creation time, we must create gates in an order where feedback
    // through flip-flops is legal: create every flip-flop as a placeholder
    // first, then gates in dependency order (iterate until fixpoint; a
    // leftover means a reference to an undeclared/undriven net or a
    // combinational cycle, which we then surface through dedicated nets).
    let is_dff = |p: &str| matches!(p, "dff" | "dffe" | "dffr" | "dffre");
    let base_of = |n: &str| crate::netlist::split_bit_suffix(n).0.to_owned();
    for inst in instances.iter().filter(|i| is_dff(i.prim.as_str())) {
        let q = inst.args.first().ok_or(ParseVerilogError {
            line: inst.line,
            message: "flip-flop needs at least (q, d)".into(),
        })?;
        if !declared.contains_key(&base_of(q)) && !declared.contains_key(q) {
            return Err(ParseVerilogError {
                line: inst.line,
                message: format!("flip-flop output `{}` not declared", shown(q)),
            });
        }
        let net = builder.dff_placeholder(q.clone());
        created.insert(q.clone(), net);
    }

    // Tie cells: `tie0 name(net);` / `tie1 name(net);` drive a constant.
    for inst in instances
        .iter()
        .filter(|i| matches!(i.prim.as_str(), "tie0" | "tie1"))
    {
        if inst.args.len() != 1 {
            return Err(ParseVerilogError {
                line: inst.line,
                message: format!("`{}` takes exactly one argument", shown(&inst.prim)),
            });
        }
        let value = if inst.prim == "tie1" {
            Logic::One
        } else {
            Logic::Zero
        };
        // `constant` caches per value under a generated name; alias the
        // declared name to the constant through a buffer so references by
        // name resolve.
        let c = builder.constant(value);
        let net = builder.gate(GateKind::Buf, &[c], inst.args[0].clone());
        created.insert(inst.args[0].clone(), net);
    }

    let mut remaining: Vec<&Instance> = instances
        .iter()
        .filter(|i| !is_dff(i.prim.as_str()) && !matches!(i.prim.as_str(), "tie0" | "tie1"))
        .collect();
    loop {
        let before = remaining.len();
        remaining.retain(|inst| {
            let kind = match GateKind::from_verilog_name(&inst.prim) {
                Some(k) => k,
                None => return true, // reported below
            };
            if inst.args.len() < 2 {
                return true;
            }
            let out = &inst.args[0];
            let input_ids: Option<Vec<NetId>> = inst.args[1..]
                .iter()
                .map(|a| created.get(a).copied())
                .collect();
            let Some(input_ids) = input_ids else {
                return true; // inputs not ready yet
            };
            // Verilog primitive arg order (out, inputs...) matches the
            // builder; arity violations are reported by the builder under
            // the instance's own name.
            let net = builder.gate(kind, &input_ids, out.clone());
            created.insert(out.clone(), net);
            false
        });
        if remaining.len() == before {
            break;
        }
    }
    if let Some(inst) = remaining.first() {
        let unknown_prim = GateKind::from_verilog_name(&inst.prim).is_none();
        let msg = if unknown_prim {
            format!("unknown primitive `{}`", shown(&inst.prim))
        } else {
            let missing: Vec<&String> = inst.args[1..]
                .iter()
                .filter(|a| !created.contains_key(*a))
                .collect();
            let mut names: Vec<String> = missing.iter().take(8).map(|s| shown(s)).collect();
            if missing.len() > names.len() {
                names.push(format!("and {} more", missing.len() - names.len()));
            }
            format!(
                "instance `{}` reads undriven/undeclared net(s): {}",
                shown(&inst.name),
                names.join(", ")
            )
        };
        return Err(ParseVerilogError {
            line: inst.line,
            message: msg,
        });
    }

    // Bind flip-flop data/control inputs.
    for inst in instances.iter().filter(|i| is_dff(i.prim.as_str())) {
        let need = match inst.prim.as_str() {
            "dff" => 2,
            "dffe" | "dffr" => 3,
            _ => 4,
        };
        if inst.args.len() != need {
            return Err(ParseVerilogError {
                line: inst.line,
                message: format!("`{}` takes {} arguments", shown(&inst.prim), need),
            });
        }
        let lookup = |name: &String| -> Result<NetId, ParseVerilogError> {
            created.get(name).copied().ok_or_else(|| ParseVerilogError {
                line: inst.line,
                message: format!(
                    "flip-flop `{}` reads undriven net `{}`",
                    shown(&inst.name),
                    shown(name)
                ),
            })
        };
        let q_name = &inst.args[0];
        let d = lookup(&inst.args[1])?;
        builder.bind_dff(q_name, d);
        let q_net = created[q_name];
        match inst.prim.as_str() {
            "dffe" => {
                let en = lookup(&inst.args[2])?;
                builder.set_dff_controls(q_net, Some(en), None, Logic::Zero);
            }
            "dffr" => {
                let rst = lookup(&inst.args[2])?;
                builder.set_dff_controls(q_net, None, Some(rst), Logic::Zero);
            }
            "dffre" => {
                let en = lookup(&inst.args[2])?;
                let rst = lookup(&inst.args[3])?;
                builder.set_dff_controls(q_net, Some(en), Some(rst), Logic::Zero);
            }
            _ => {}
        }
    }

    // Mark outputs: in this subset an output net is directly driven by an
    // instance; `NetlistBuilder::output` adds a port buffer, which would
    // rename the net, so outputs are instead registered through the driven
    // net itself.
    for name in output_names {
        let Some(&net) = created.get(&name) else {
            return Err(ParseVerilogError {
                line: 0,
                message: format!("output `{}` is never driven", shown(&name)),
            });
        };
        builder.register_output_port(net);
    }

    Ok(builder.finish()?)
}

/// Serialises a netlist into the structural Verilog subset accepted by
/// [`parse_verilog`].
///
/// Hierarchical block tags are emitted as trailing `//` comments so they
/// survive review, though the parser does not reconstruct them.
pub fn write_verilog(netlist: &Netlist) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let port_names: Vec<&str> = netlist
        .inputs()
        .iter()
        .chain(netlist.outputs())
        .map(|&n| netlist.net(n).name.as_str())
        .collect();
    // Port list uses base names (deduplicated) because bused ports expand.
    let mut bases: Vec<String> = Vec::new();
    for p in &port_names {
        let base = crate::netlist::split_bit_suffix(p).0.to_owned();
        if !bases.contains(&base) {
            bases.push(base);
        }
    }
    let _ = writeln!(s, "module {} ({});", netlist.name(), bases.join(", "));
    let outputs: std::collections::HashSet<NetId> = netlist.outputs().iter().copied().collect();
    for &i in netlist.inputs() {
        let _ = writeln!(s, "  input {};", escape(&netlist.net(i).name));
    }
    for &o in netlist.outputs() {
        let _ = writeln!(s, "  output {};", escape(&netlist.net(o).name));
    }
    for (i, net) in netlist.nets().iter().enumerate() {
        let is_port =
            matches!(net.driver, Driver::Input) || outputs.contains(&NetId::from_index(i));
        if !is_port {
            let _ = writeln!(s, "  wire {};", escape(&net.name));
        }
    }
    // Constant-driven nets become tie cells.
    for (i, net) in netlist.nets().iter().enumerate() {
        if let Driver::Const(v) = net.driver {
            let prim = if v == Logic::One { "tie1" } else { "tie0" };
            let _ = writeln!(s, "  {prim} t{i} ({});", escape(&net.name));
        }
    }
    for (gi, g) in netlist.gates().iter().enumerate() {
        let args: Vec<String> = std::iter::once(g.output)
            .chain(g.inputs.iter().copied())
            .map(|n| escape(&netlist.net(n).name))
            .collect();
        let block = netlist.block_path(g.block);
        let tag = if block.is_empty() {
            String::new()
        } else {
            format!(" // block {block}")
        };
        let _ = writeln!(
            s,
            "  {} g{}_{} ({});{}",
            g.kind.verilog_name(),
            gi,
            sanitize(&g.name),
            args.join(", "),
            tag
        );
    }
    for (fi, ff) in netlist.dffs().iter().enumerate() {
        let (prim, extra): (&str, Vec<NetId>) = match (ff.enable, ff.reset) {
            (None, None) => ("dff", vec![]),
            (Some(en), None) => ("dffe", vec![en]),
            (None, Some(rst)) => ("dffr", vec![rst]),
            (Some(en), Some(rst)) => ("dffre", vec![en, rst]),
        };
        let args: Vec<String> = std::iter::once(ff.q)
            .chain(std::iter::once(ff.d))
            .chain(extra)
            .map(|n| escape(&netlist.net(n).name))
            .collect();
        let _ = writeln!(
            s,
            "  {prim} r{fi}_{} ({});",
            sanitize(&ff.name),
            args.join(", ")
        );
    }
    let _ = writeln!(s, "endmodule");
    s
}

fn escape(name: &str) -> String {
    name.to_owned()
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    const SAMPLE: &str = "
        module sample(a, b, clk, y);
        input a, b;
        input clk;
        output y;
        wire s; wire q;
        xor g0(s, a, b);
        dff r0(q, s);
        buf g1(y, q);
        endmodule";

    #[test]
    fn parse_sample() {
        let nl = parse_verilog(SAMPLE).unwrap();
        assert_eq!(nl.name(), "sample");
        assert_eq!(nl.inputs().len(), 3);
        assert_eq!(nl.outputs().len(), 1);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.dff_count(), 1);
        // clk is marked critical
        assert_eq!(nl.critical_nets().len(), 1);
    }

    #[test]
    fn parse_buses() {
        let src = "
            module busy(d, y);
            input [3:0] d;
            output [1:0] y;
            and g0(y[0], d[0], d[1]);
            or  g1(y[1], d[2], d[3]);
            endmodule";
        let nl = parse_verilog(src).unwrap();
        assert_eq!(nl.inputs().len(), 4);
        assert_eq!(nl.outputs().len(), 2);
        assert!(nl.net_by_name("d[3]").is_some());
    }

    #[test]
    fn out_of_order_instances_resolve() {
        let src = "
            module ooo(a, y);
            input a; output y;
            wire w;
            buf g1(y, w);
            not g0(w, a);
            endmodule";
        let nl = parse_verilog(src).unwrap();
        assert_eq!(nl.gate_count(), 2);
    }

    #[test]
    fn dff_variants_parse() {
        let src = "
            module ffs(d, en, rst, q3);
            input d, en, rst;
            output q3;
            wire q0; wire q1; wire q2;
            dff   r0(q0, d);
            dffe  r1(q1, q0, en);
            dffr  r2(q2, q1, rst);
            dffre r3(q3, q2, en, rst);
            endmodule";
        let nl = parse_verilog(src).unwrap();
        assert_eq!(nl.dff_count(), 4);
        let ff = nl
            .dffs()
            .iter()
            .find(|f| f.name == "q3")
            .expect("q3 exists");
        assert!(ff.enable.is_some() && ff.reset.is_some());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "module m(a);\ninput a;\nfrob g0(a, a);\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unknown primitive"));
    }

    #[test]
    fn undriven_reference_is_an_error() {
        let src = "
            module m(a, y);
            input a; output y;
            and g0(y, a, ghost);
            endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn errors_quote_at_most_64_characters_of_a_token() {
        let long = "x".repeat(1 << 20);
        for src in [
            long.clone(),
            format!("module m(a);\ninput a;\n{long} g0(a, a);\nendmodule"),
            format!("module m(a, y);\ninput a; output y;\nand g0(y, a, {long});\nendmodule"),
            format!("module m(a);\ninput a;\nwire {long};\nwire {long};\nendmodule"),
            format!("module m(a, {long});\ninput a; output {long};\nendmodule"),
        ] {
            let err = parse_verilog(&src).unwrap_err();
            let clipped = format!("{}…", "x".repeat(64));
            assert!(err.message.contains(&clipped), "{}", shown(&err.message));
            assert!(err.to_string().len() < 200, "{}", shown(&err.message));
        }
        assert_eq!(shown("ünïcödé"), "ünïcödé");
        assert_eq!(shown(&"é".repeat(65)), format!("{}…", "é".repeat(64)));
    }

    #[test]
    fn round_trip_through_writer() {
        let mut b = NetlistBuilder::new("rt");
        let a = b.input("a");
        let clk = b.clock_input("clk");
        let _ = clk;
        let x = b.gate(GateKind::Not, &[a], "x");
        let en = b.input("en");
        let q = b.dff_full("q", x, Some(en), None, Logic::Zero, Logic::Zero);
        b.output("y", q);
        let nl = b.finish().unwrap();
        let text = write_verilog(&nl);
        let nl2 = parse_verilog(&text).unwrap();
        assert_eq!(nl2.gate_count(), nl.gate_count());
        assert_eq!(nl2.dff_count(), 1);
        assert_eq!(nl2.inputs().len(), nl.inputs().len());
        assert_eq!(nl2.outputs().len(), nl.outputs().len());
    }

    #[test]
    fn comments_are_skipped() {
        let src = "
            // line comment
            module m(a, y); /* block
            comment */ input a; output y;
            buf g0(y, a); // trailing
            endmodule";
        assert!(parse_verilog(src).is_ok());
    }
}
