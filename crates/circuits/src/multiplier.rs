//! The public multiplier handle and kind selector.

use std::fmt;

use agemul_logic::Logic;
use agemul_netlist::{Bus, Netlist};

use crate::{array, booth, column, common, row, wallace, CircuitError};

/// Which operand a bypassing multiplier keys its skipping (and therefore the
/// AHL its judging) on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// The `a` operand (multiplicand) — used by column bypassing.
    Multiplicand,
    /// The `b` operand (multiplicator) — used by row bypassing.
    Multiplicator,
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Multiplicand => f.write_str("multiplicand"),
            Operand::Multiplicator => f.write_str("multiplicator"),
        }
    }
}

/// The three multiplier architectures the paper compares.
///
/// # Example
///
/// ```
/// use agemul_circuits::{MultiplierKind, Operand};
///
/// assert_eq!(MultiplierKind::ColumnBypass.judged_operand(), Operand::Multiplicand);
/// assert_eq!(MultiplierKind::RowBypass.judged_operand(), Operand::Multiplicator);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MultiplierKind {
    /// Normal array multiplier (paper Fig. 1) — the "AM" baseline.
    Array,
    /// Column-bypassing multiplier (paper Fig. 2).
    ColumnBypass,
    /// Row-bypassing multiplier (paper Fig. 3).
    RowBypass,
    /// Wallace-tree multiplier — extension baseline with a logarithmic
    /// critical path (not part of the paper's comparison).
    Wallace,
    /// Radix-4 Booth-encoded multiplier — the substrate of the paper's
    /// related-work variable-latency Booth designs (ref. 18).
    Booth,
}

impl MultiplierKind {
    /// The paper's three architectures, in presentation order.
    pub const PAPER: [MultiplierKind; 3] = [
        MultiplierKind::Array,
        MultiplierKind::ColumnBypass,
        MultiplierKind::RowBypass,
    ];

    /// Every implemented architecture, paper trio first.
    pub const ALL: [MultiplierKind; 5] = [
        MultiplierKind::Array,
        MultiplierKind::ColumnBypass,
        MultiplierKind::RowBypass,
        MultiplierKind::Wallace,
        MultiplierKind::Booth,
    ];

    /// The operand whose zero count predicts this multiplier's path delay.
    ///
    /// The array and Wallace multipliers have no bypassing; by convention
    /// they report the multiplicand (the choice only matters for variable-
    /// latency judging, where these kinds serve as weak-predictor
    /// baselines). Booth's activity is driven by the multiplicator's digit
    /// pattern.
    pub fn judged_operand(self) -> Operand {
        match self {
            MultiplierKind::Array | MultiplierKind::ColumnBypass | MultiplierKind::Wallace => {
                Operand::Multiplicand
            }
            MultiplierKind::RowBypass | MultiplierKind::Booth => Operand::Multiplicator,
        }
    }

    /// Short label used in experiment tables ("AM", "CB", "RB", …).
    pub fn label(self) -> &'static str {
        match self {
            MultiplierKind::Array => "AM",
            MultiplierKind::ColumnBypass => "CB",
            MultiplierKind::RowBypass => "RB",
            MultiplierKind::Wallace => "WAL",
            MultiplierKind::Booth => "BOOTH",
        }
    }

    /// Parses a [`label`](Self::label) (`AM`, `CB`, `RB`, `WAL`, `BOOTH`).
    ///
    /// # Errors
    ///
    /// Describes the unknown label and lists the valid ones.
    pub fn from_label(label: &str) -> Result<MultiplierKind, String> {
        MultiplierKind::ALL
            .into_iter()
            .find(|k| k.label() == label)
            .ok_or_else(|| {
                let valid: Vec<&str> = MultiplierKind::ALL.iter().map(|k| k.label()).collect();
                format!("unknown kind {label:?} (want one of {})", valid.join(", "))
            })
    }
}

impl fmt::Display for MultiplierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiplierKind::Array => f.write_str("array"),
            MultiplierKind::ColumnBypass => f.write_str("column-bypassing"),
            MultiplierKind::RowBypass => f.write_str("row-bypassing"),
            MultiplierKind::Wallace => f.write_str("wallace-tree"),
            MultiplierKind::Booth => f.write_str("booth-radix4"),
        }
    }
}

/// Internal hand-off from the per-kind generator modules.
pub(crate) struct MultiplierParts {
    pub netlist: Netlist,
    pub a: Bus,
    pub b: Bus,
    pub product: Bus,
}

/// A generated n×n multiplier: the netlist plus its operand/product ports.
///
/// All kinds compute the same function — `product = a × b` over unsigned
/// `width`-bit operands — but differ in topology and therefore in
/// input-dependent delay and switching activity.
///
/// # Example
///
/// ```
/// use agemul_circuits::{MultiplierCircuit, MultiplierKind};
///
/// let m = MultiplierCircuit::generate(MultiplierKind::Array, 16)?;
/// assert_eq!(m.width(), 16);
/// assert_eq!(m.product().width(), 32);
/// # Ok::<(), agemul_circuits::CircuitError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MultiplierCircuit {
    netlist: Netlist,
    a: Bus,
    b: Bus,
    product: Bus,
    kind: MultiplierKind,
    width: usize,
    signed: bool,
}

impl MultiplierCircuit {
    /// Generates an unsigned multiplier of the given kind and operand
    /// width.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthOutOfRange`] if `width` is outside
    /// [`MIN_WIDTH`](crate::MIN_WIDTH)..=[`MAX_WIDTH`](crate::MAX_WIDTH).
    pub fn generate(kind: MultiplierKind, width: usize) -> Result<Self, CircuitError> {
        common::check_width(width)?;
        let parts = match kind {
            MultiplierKind::Array => array::build(width)?,
            MultiplierKind::ColumnBypass => column::build(width)?,
            MultiplierKind::RowBypass => row::build(width)?,
            MultiplierKind::Wallace => wallace::build(width)?,
            MultiplierKind::Booth => booth::build(width)?,
        };
        Ok(MultiplierCircuit {
            netlist: parts.netlist,
            a: parts.a,
            b: parts.b,
            product: parts.product,
            kind,
            width,
            signed: false,
        })
    }

    /// Generates a radix-4 Booth multiplier for **two's-complement signed**
    /// operands: the `2 × width`-bit product is the signed product's bit
    /// pattern. Operands are still passed as raw bit patterns through
    /// [`encode_inputs`](Self::encode_inputs).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthOutOfRange`] for unsupported widths.
    ///
    /// # Example
    ///
    /// ```
    /// use agemul_circuits::MultiplierCircuit;
    /// use agemul_netlist::FuncSim;
    ///
    /// let m = MultiplierCircuit::generate_signed_booth(8)?;
    /// let topo = m.netlist().topology()?;
    /// let mut sim = FuncSim::new(m.netlist(), &topo);
    /// // −3 × 5 = −15 in 8-bit two's complement.
    /// sim.eval(&m.encode_inputs(0xFD, 0x05)?)?;
    /// let product = m.product().decode(sim.values()).unwrap() as u16 as i16;
    /// assert_eq!(product, -15);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn generate_signed_booth(width: usize) -> Result<Self, CircuitError> {
        common::check_width(width)?;
        let parts = booth::build_signed(width)?;
        Ok(MultiplierCircuit {
            netlist: parts.netlist,
            a: parts.a,
            b: parts.b,
            product: parts.product,
            kind: MultiplierKind::Booth,
            width,
            signed: true,
        })
    }

    /// Whether the product is a two's-complement signed result.
    #[inline]
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// The underlying combinational netlist.
    #[inline]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The multiplicand bus (`a`, LSB first).
    #[inline]
    pub fn a(&self) -> &Bus {
        &self.a
    }

    /// The multiplicator bus (`b`, LSB first).
    #[inline]
    pub fn b(&self) -> &Bus {
        &self.b
    }

    /// The `2 × width`-bit product bus.
    #[inline]
    pub fn product(&self) -> &Bus {
        &self.product
    }

    /// The architecture of this instance.
    #[inline]
    pub fn kind(&self) -> MultiplierKind {
        self.kind
    }

    /// Operand width in bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The operand bus whose zero count the AHL judges for this kind.
    pub fn judged_bus(&self) -> &Bus {
        match self.kind.judged_operand() {
            Operand::Multiplicand => &self.a,
            Operand::Multiplicator => &self.b,
        }
    }

    /// Encodes an `(a, b)` operand pair as a primary-input vector in the
    /// netlist's input order (`a` bits LSB-first, then `b` bits).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::OperandOverflow`] if either operand does not
    /// fit in [`width`](Self::width) bits.
    pub fn encode_inputs(&self, a: u64, b: u64) -> Result<Vec<Logic>, CircuitError> {
        let mut v = Vec::with_capacity(2 * self.width);
        self.encode_inputs_into(a, b, &mut v)?;
        Ok(v)
    }

    /// [`encode_inputs`](Self::encode_inputs) into a caller-owned buffer
    /// (cleared first), so per-pattern hot loops — profiling, functional
    /// verification, workload statistics — can reuse one allocation across
    /// an entire workload.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::OperandOverflow`] if either operand does not
    /// fit in [`width`](Self::width) bits; the buffer is left cleared.
    pub fn encode_inputs_into(
        &self,
        a: u64,
        b: u64,
        buf: &mut Vec<Logic>,
    ) -> Result<(), CircuitError> {
        buf.clear();
        let check = |value: u64| -> Result<(), CircuitError> {
            if self.width < 64 && value >> self.width != 0 {
                Err(CircuitError::OperandOverflow {
                    value,
                    width: self.width,
                })
            } else {
                Ok(())
            }
        };
        check(a)?;
        check(b)?;
        for i in 0..self.width {
            buf.push(Logic::from((a >> i) & 1 == 1));
        }
        for i in 0..self.width {
            buf.push(Logic::from((b >> i) & 1 == 1));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_metadata() {
        assert_eq!(MultiplierKind::Array.label(), "AM");
        assert_eq!(MultiplierKind::ColumnBypass.label(), "CB");
        assert_eq!(MultiplierKind::RowBypass.label(), "RB");
        assert_eq!(MultiplierKind::ColumnBypass.to_string(), "column-bypassing");
    }

    #[test]
    fn labels_parse_back() {
        for kind in MultiplierKind::ALL {
            assert_eq!(MultiplierKind::from_label(kind.label()), Ok(kind));
        }
        assert_eq!(
            MultiplierKind::from_label("XX").unwrap_err(),
            "unknown kind \"XX\" (want one of AM, CB, RB, WAL, BOOTH)"
        );
    }

    #[test]
    fn judged_operands() {
        assert_eq!(
            MultiplierKind::ColumnBypass.judged_operand(),
            Operand::Multiplicand
        );
        assert_eq!(
            MultiplierKind::RowBypass.judged_operand(),
            Operand::Multiplicator
        );
    }

    #[test]
    fn encode_layout() {
        let m = MultiplierCircuit::generate(MultiplierKind::Array, 4).unwrap();
        let v = m.encode_inputs(0b0001, 0b1000).unwrap();
        assert_eq!(v.len(), 8);
        assert_eq!(v[0], Logic::One); // a0
        assert_eq!(v[4], Logic::Zero); // b0
        assert_eq!(v[7], Logic::One); // b3
    }

    #[test]
    fn encode_rejects_overflow() {
        let m = MultiplierCircuit::generate(MultiplierKind::Array, 4).unwrap();
        assert!(matches!(
            m.encode_inputs(16, 0),
            Err(CircuitError::OperandOverflow { value: 16, .. })
        ));
        assert!(m.encode_inputs(15, 15).is_ok());
    }

    #[test]
    fn width_checked() {
        assert!(MultiplierCircuit::generate(MultiplierKind::Array, 1).is_err());
        assert!(MultiplierCircuit::generate(MultiplierKind::Array, 65).is_err());
    }

    #[test]
    fn judged_bus_selects_correct_operand() {
        let cb = MultiplierCircuit::generate(MultiplierKind::ColumnBypass, 4).unwrap();
        assert_eq!(cb.judged_bus().net(0), cb.a().net(0));
        let rb = MultiplierCircuit::generate(MultiplierKind::RowBypass, 4).unwrap();
        assert_eq!(rb.judged_bus().net(0), rb.b().net(0));
    }
}
